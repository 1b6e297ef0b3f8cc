(* The serve daemon's test battery.

   Three layers:
   - protocol round trips through [Protocol.handle_line] directly (no
     sockets): every verb, the cached flag, per-request seed isolation,
     bit-for-bit agreement with standalone sequential runs, and the
     timeout / no-degrade / fault-plan error mapping onto the same
     taxonomy kinds the CLI turns into exit codes;
   - a protocol fuzz battery: malformed JSON, truncated documents,
     hostile nesting, wrong-typed and out-of-range numerics — every one
     must come back as a parseable [invalid-input] error response and
     leave the daemon answering;
   - real sockets: a server thread serving Unix-domain and TCP clients,
     oversized-line resync, partial-line EOF, shutdown draining
     pipelined requests, and the 8-client soak whose responses must be
     byte-identical across clients and across domain counts 1 and 4. *)

open Nanodec_serve
module Run_ctx = Nanodec_parallel.Run_ctx
module Telemetry = Nanodec_telemetry.Telemetry
module Fault = Nanodec_fault.Fault
module E = Nanodec_error

let with_state ?cache_enabled ?(domains = 2) f =
  Run_ctx.with_ctx ~domains @@ fun ctx ->
  f (Protocol.make_state ?cache_enabled ~base:ctx ())

let parse_response line =
  match Json.parse line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "unparsable response %S: %s" line msg

let member name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "response lacks field %S: %s" name (Json.to_string json)

let string_member name json =
  match Json.to_string_opt (member name json) with
  | Some s -> s
  | None -> Alcotest.failf "field %S is not a string" name

let int_member name json =
  match Json.to_int_opt (member name json) with
  | Some i -> i
  | None -> Alcotest.failf "field %S is not an int" name

let float_member name json =
  match Json.to_float_opt (member name json) with
  | Some f -> f
  | None -> Alcotest.failf "field %S is not a number" name

let bool_member name json =
  match Json.to_bool_opt (member name json) with
  | Some b -> b
  | None -> Alcotest.failf "field %S is not a bool" name

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let ask state line = parse_response (Protocol.handle_line state line)

let expect_ok response =
  Alcotest.(check string)
    ("status of " ^ Json.to_string response)
    "ok"
    (string_member "status" response);
  member "result" response

let expect_error ~kind ~exit_code response =
  Alcotest.(check string) "status" "error" (string_member "status" response);
  Alcotest.(check string) "kind" kind (string_member "kind" response);
  Alcotest.(check int) "exit_code" exit_code (int_member "exit_code" response)

(* --- protocol round trips --- *)

let test_ping () =
  with_state @@ fun state ->
  let r = ask state {|{"id":"abc","verb":"ping"}|} in
  Alcotest.(check string) "id echoed" "abc" (string_member "id" r);
  Alcotest.(check string) "verb echoed" "ping" (string_member "verb" r);
  Alcotest.(check bool) "pong" true (bool_member "pong" (expect_ok r))

let test_evaluate_matches_direct () =
  with_state @@ fun state ->
  let r =
    ask state {|{"verb":"evaluate","params":{"code":"BGC","length":10}}|}
  in
  let result = expect_ok r in
  let direct =
    Nanodec.Design.evaluate
      (Nanodec.Design.spec ~code_type:Nanodec_codes.Codebook.Balanced_gray
         ~code_length:10 ())
  in
  Alcotest.(check int) "phi" direct.Nanodec.Design.phi (int_member "phi" result);
  Alcotest.(check (float 0.)) "crossbar_yield"
    direct.Nanodec.Design.crossbar_yield
    (float_member "crossbar_yield" result);
  Alcotest.(check (float 0.)) "bit_area" direct.Nanodec.Design.bit_area
    (float_member "bit_area" result)

let test_evaluate_mc_matches_direct () =
  with_state @@ fun state ->
  let r =
    ask state
      {|{"verb":"evaluate","params":{"code":"BGC","length":8},"exec":{"seed":11,"mc_samples":300}}|}
  in
  let mc = member "mc" (expect_ok r) in
  let direct =
    Run_ctx.with_ctx ~domains:2 @@ fun ctx ->
    let spec =
      Nanodec.Design.spec ~code_type:Nanodec_codes.Codebook.Balanced_gray
        ~code_length:8 ()
    in
    Nanodec_crossbar.Cave.mc_yield_window ~ctx
      (Nanodec_numerics.Rng.create ~seed:11)
      ~samples:300
      (Nanodec_crossbar.Cave.analyze spec.Nanodec.Design.cave)
  in
  Alcotest.(check (float 0.)) "mc mean is bit-for-bit the direct estimate"
    direct.Nanodec_numerics.Montecarlo.mean
    (float_member "mean" mc);
  Alcotest.(check int) "samples" 300 (int_member "samples" mc);
  Alcotest.(check int) "seed" 11 (int_member "seed" mc)

let test_cached_flag_and_identical_result () =
  with_state @@ fun state ->
  let line =
    {|{"verb":"evaluate","params":{"code":"TC","length":8},"exec":{"seed":3,"mc_samples":200}}|}
  in
  let r1 = ask state line in
  let r2 = ask state line in
  Alcotest.(check bool) "first is cold" false (bool_member "cached" r1);
  Alcotest.(check bool) "second is cached" true (bool_member "cached" r2);
  Alcotest.(check string) "hit result is byte-identical to the cold result"
    (Json.to_string (member "result" r1))
    (Json.to_string (member "result" r2))

let test_yield_defaults () =
  with_state @@ fun state ->
  let r = ask state {|{"verb":"yield","params":{"code":"TC","length":6}}|} in
  let mc = member "mc" (expect_ok r) in
  Alcotest.(check int) "default samples" 1000 (int_member "samples" mc);
  Alcotest.(check int) "default seed" Run_ctx.default_seed
    (int_member "seed" mc)

let test_seed_isolation () =
  with_state @@ fun state ->
  let line seed =
    Printf.sprintf
      {|{"verb":"yield","params":{"code":"TC","length":6},"exec":{"seed":%d,"mc_samples":200}}|}
      seed
  in
  let r1 = ask state (line 1) in
  let r2 = ask state (line 2) in
  let r3 = ask state (line 1) in
  Alcotest.(check string) "same seed reproduces across interleaved requests"
    (Json.to_string (member "result" r1))
    (Json.to_string (member "result" r3));
  Alcotest.(check bool) "different seeds draw different noise" false
    (String.equal
       (Json.to_string (member "result" r1))
       (Json.to_string (member "result" r2)))

let test_matches_standalone_sequential_run () =
  (* A daemon request must return exactly what a one-shot sequential
     CLI-style run of the same parameters computes. *)
  let direct =
    Run_ctx.with_ctx ~domains:1 @@ fun ctx ->
    let spec =
      Nanodec.Design.spec ~code_type:Nanodec_codes.Codebook.Gray
        ~code_length:8 ()
    in
    Nanodec_crossbar.Cave.mc_yield_window ~ctx
      (Nanodec_numerics.Rng.create ~seed:21)
      ~samples:400
      (Nanodec_crossbar.Cave.analyze spec.Nanodec.Design.cave)
  in
  with_state ~domains:4 @@ fun state ->
  let r =
    ask state
      {|{"verb":"yield","params":{"code":"GC","length":8},"exec":{"seed":21,"mc_samples":400}}|}
  in
  let mc = member "mc" (expect_ok r) in
  Alcotest.(check (float 0.)) "daemon(4 domains) = standalone(1 domain)"
    direct.Nanodec_numerics.Montecarlo.mean
    (float_member "mean" mc)

let test_codes_round_trip () =
  with_state @@ fun state ->
  let r =
    ask state {|{"verb":"codes","params":{"code":"AHC","length":6,"count":5}}|}
  in
  let result = expect_ok r in
  let words =
    match Json.to_list_opt (member "words" result) with
    | Some l -> List.filter_map Json.to_string_opt l
    | None -> Alcotest.fail "words is not a list"
  in
  let direct =
    List.map Nanodec_codes.Word.to_string
      (Nanodec_codes.Codebook.sequence ~radix:2 ~length:6 ~count:5
         Nanodec_codes.Codebook.Arranged_hot)
  in
  Alcotest.(check (list string)) "word sequence" direct words

let test_sweep_round_trip () =
  with_state @@ fun state ->
  let line = {|{"verb":"sweep","params":{"radix":2,"wires":20}}|} in
  let r1 = ask state line in
  let rows =
    match Json.to_list_opt (member "rows" (expect_ok r1)) with
    | Some l -> l
    | None -> Alcotest.fail "rows is not a list"
  in
  let direct = Nanodec.Optimizer.sweep () in
  Alcotest.(check int) "row count matches Optimizer.sweep"
    (List.length direct) (List.length rows);
  let r2 = ask state line in
  Alcotest.(check bool) "sweep result cached on repeat" true
    (bool_member "cached" r2)

let test_check_verb () =
  with_state @@ fun state ->
  let r = ask state {|{"verb":"check","params":{"count":2,"seed":5}}|} in
  let result = expect_ok r in
  Alcotest.(check int) "runs every oracle"
    (List.length Nanodec_proptest.Oracles.all)
    (int_member "properties" result);
  Alcotest.(check int) "no failures" 0 (int_member "failed" result);
  Alcotest.(check int) "echoes the seed" 5 (int_member "seed" result)

let test_stats_counts () =
  with_state @@ fun state ->
  ignore (ask state {|{"verb":"ping"}|});
  ignore (ask state {|not json|});
  ignore (ask state {|{"verb":"evaluate"}|});
  let r = ask state {|{"verb":"stats"}|} in
  let result = expect_ok r in
  Alcotest.(check int) "requests counted" 4 (int_member "requests" result);
  Alcotest.(check int) "errors counted" 1 (int_member "errors" result);
  let cache = member "cache" result in
  Alcotest.(check bool) "evaluate populated the cache" true
    (int_member "entries" cache > 0);
  (* Without a server attached the scheduler view is the serial
     picture: this very request in flight, nothing queued or shed. *)
  let serve = member "serve" result in
  Alcotest.(check int) "serial inflight" 1 (int_member "inflight" serve);
  Alcotest.(check int) "serial queued" 0 (int_member "queued" serve);
  Alcotest.(check int) "serial shed" 0 (int_member "shed" serve)

let test_shutdown_flag () =
  with_state @@ fun state ->
  Alcotest.(check bool) "not stopping initially" false
    (Protocol.stopping state);
  let r = ask state {|{"verb":"shutdown"}|} in
  Alcotest.(check bool) "stopping acknowledged" true
    (bool_member "stopping" (expect_ok r));
  Alcotest.(check bool) "state marked stopping" true (Protocol.stopping state)

(* --- error mapping --- *)

let test_unknown_verb () =
  with_state @@ fun state ->
  let r = ask state {|{"id":7,"verb":"frobnicate"}|} in
  expect_error ~kind:"invalid-input" ~exit_code:2 r;
  Alcotest.(check int) "id still echoed" 7 (int_member "id" r);
  let hint = string_member "hint" r in
  Alcotest.(check bool) "hint lists the verbs" true
    (List.for_all (fun v -> contains ~needle:v hint) Protocol.known_verbs)

let test_malformed_json_then_alive () =
  with_state @@ fun state ->
  let r = ask state "{" in
  expect_error ~kind:"invalid-input" ~exit_code:2 r;
  let r2 = ask state {|{"verb":"ping"}|} in
  Alcotest.(check bool) "daemon still answers" true
    (bool_member "pong" (expect_ok r2))

let test_non_object_request () =
  with_state @@ fun state ->
  expect_error ~kind:"invalid-input" ~exit_code:2 (ask state "[1,2,3]");
  expect_error ~kind:"invalid-input" ~exit_code:2 (ask state "42")

let test_invalid_numerics () =
  with_state @@ fun state ->
  let cases =
    [
      {|{"verb":"yield","exec":{"mc_samples":0}}|};
      {|{"verb":"yield","exec":{"mc_samples":-5}}|};
      {|{"verb":"yield","exec":{"mc_samples":1}}|};
      {|{"verb":"yield","exec":{"seed":-1}}|};
      {|{"verb":"yield","exec":{"seed":1.5}}|};
      {|{"verb":"yield","exec":{"timeout":-1}}|};
      {|{"verb":"yield","exec":{"timeout":0}}|};
      {|{"verb":"yield","exec":{"chunks":0}}|};
      {|{"verb":"yield","exec":{"chunks":"minus one"}}|};
      {|{"verb":"evaluate","params":{"radix":1}}|};
      {|{"verb":"evaluate","params":{"radix":-2}}|};
      {|{"verb":"evaluate","params":{"length":0}}|};
      {|{"verb":"evaluate","params":{"wires":0}}|};
      {|{"verb":"evaluate","params":{"raw_bits":0}}|};
      {|{"verb":"codes","params":{"count":0}}|};
      {|{"verb":"check","params":{"count":0}}|};
      {|{"verb":"check","params":{"count":1000000}}|};
      {|{"verb":"evaluate","params":{"code":"XYZ"}}|};
    ]
  in
  List.iter
    (fun line -> expect_error ~kind:"invalid-input" ~exit_code:2 (ask state line))
    cases;
  Alcotest.(check bool) "daemon still answers after the battery" true
    (bool_member "pong" (expect_ok (ask state {|{"verb":"ping"}|})))

let test_fuzz_battery () =
  with_state @@ fun state ->
  let deep = String.concat "" (List.init 100 (fun _ -> "[")) in
  let hostile =
    [
      "";
      "   ";
      "{";
      "[";
      "\"just a string\"";
      "null";
      "true";
      "{\"verb\":\"ping\"";
      "{\"verb\": }";
      "{\"verb\":42}";
      "{\"verb\":[\"ping\"]}";
      "{\"verb\":\"ping\",\"id\":}";
      "{\"verb\":\"ping\"}garbage";
      deep;
      "{\"verb\":\"evaluate\",\"params\":{\"length\":\"ten\"}}";
      "{\"verb\":\"evaluate\",\"params\":42}";
      "{\"verb\":\"evaluate\",\"exec\":[]}";
      "{\"verb\":\"yield\",\"exec\":{\"seed\":99999999999999999999999999}}";
      "{\"verb\":\"yield\",\"exec\":{\"timeout\":NaN}}";
      "{\"verb\":\"yield\",\"exec\":{\"timeout\":Infinity}}";
      "{\"verb\":\"ping\",\"id\":\"\\u0000 raw \x01 control\"}";
    ]
  in
  List.iter
    (fun line ->
      let r = ask state line in
      Alcotest.(check string)
        (Printf.sprintf "hostile line %S maps to an error" line)
        "error"
        (string_member "status" r);
      Alcotest.(check string)
        (Printf.sprintf "hostile line %S is invalid-input" line)
        "invalid-input"
        (string_member "kind" r))
    hostile;
  Alcotest.(check bool) "daemon survives the fuzz battery" true
    (bool_member "pong" (expect_ok (ask state {|{"verb":"ping"}|})))

let test_timeout_mapping () =
  with_state @@ fun state ->
  let r =
    ask state
      {|{"verb":"yield","params":{"code":"BGC","length":10},"exec":{"mc_samples":50000,"timeout":1e-06}}|}
  in
  expect_error ~kind:"timeout" ~exit_code:3 r;
  Alcotest.(check bool) "shared pool still serves after the timeout" true
    (bool_member "pong" (expect_ok (ask state {|{"verb":"ping"}|})))

let test_no_degrade_mapping () =
  with_state @@ fun state ->
  let baseline =
    ask state
      {|{"verb":"yield","params":{"code":"TC","length":6},"exec":{"seed":9,"mc_samples":200}}|}
  in
  let r =
    ask state
      {|{"verb":"yield","params":{"code":"TC","length":6},"exec":{"seed":9,"mc_samples":200,"fault_plan":"seed=1;pool.chunk:crash:p=1","no_degrade":true}}|}
  in
  expect_error ~kind:"degraded" ~exit_code:5 r;
  (* With degradation allowed the same chaos plan must recover to the
     exact uninjected result — on a private pool, leaving the shared
     one untouched. *)
  let recovered =
    ask state
      {|{"verb":"yield","params":{"code":"TC","length":6},"exec":{"seed":9,"mc_samples":200,"fault_plan":"seed=1;pool.chunk:crash:p=0.4:max=20"}}|}
  in
  Alcotest.(check string) "chaos run recovers the uninjected bytes"
    (Json.to_string (member "result" baseline))
    (Json.to_string (member "result" recovered));
  let after =
    ask state
      {|{"verb":"yield","params":{"code":"TC","length":6},"exec":{"seed":9,"mc_samples":200}}|}
  in
  Alcotest.(check string) "shared pool unpoisoned, result unchanged"
    (Json.to_string (member "result" baseline))
    (Json.to_string (member "result" after))

(* --- sockets --- *)

let serve_in_thread ?max_line_bytes ?max_inflight ?max_queue ?batch_window_s
    ?max_batch ?idle_timeout_s ?cache_file ?snapshot_interval_s ?sink ?fault
    ?(domains = 2) ?cache_enabled ?cache_capacity address k =
  Run_ctx.with_ctx ?telemetry:sink ?fault ~domains @@ fun ctx ->
  let state = Protocol.make_state ?cache_enabled ?cache_capacity ~base:ctx () in
  let server =
    Server.create ?max_line_bytes ?max_inflight ?max_queue ?batch_window_s
      ?max_batch ?idle_timeout_s ?cache_file ?snapshot_interval_s ~state
      address
  in
  let thread = Thread.create Server.serve server in
  Fun.protect
    ~finally:(fun () ->
      (* Belt and braces: if the test failed before shutting down. *)
      Server.close server;
      Thread.join thread)
    (fun () -> k (Server.address server))

(* One daemon lifetime, joined to completion: create, run one client
   session, shut down over the wire and wait for the graceful drain to
   finish — so anything the drain promises (the final cache snapshot
   in particular) is on disk before this returns. *)
let daemon_session ?cache_file ?snapshot_interval_s ?(domains = 2) k =
  Run_ctx.with_ctx ~domains @@ fun ctx ->
  let state = Protocol.make_state ~base:ctx () in
  let server = Server.create ?cache_file ?snapshot_interval_s ~state (`Tcp 0) in
  let thread = Thread.create Server.serve server in
  match
    Client.with_connection (Server.address server) @@ fun conn ->
    let result = k conn in
    ignore (Client.request conn {|{"verb":"shutdown"}|});
    result
  with
  | result ->
    Thread.join thread;
    result
  | exception exn ->
    Server.close server;
    Thread.join thread;
    raise exn

let tmp_socket_path () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "nanodec-test-%d.sock" (Unix.getpid ()))

let test_unix_socket_end_to_end () =
  let path = tmp_socket_path () in
  serve_in_thread (`Unix path) @@ fun address ->
  Client.with_connection address @@ fun conn ->
  let ping = parse_response (Client.request conn {|{"verb":"ping"}|}) in
  Alcotest.(check bool) "pong over the socket" true
    (bool_member "pong" (expect_ok ping));
  let eval =
    parse_response
      (Client.request conn {|{"verb":"evaluate","params":{"length":8}}|})
  in
  ignore (expect_ok eval);
  let bye = parse_response (Client.request conn {|{"verb":"shutdown"}|}) in
  Alcotest.(check bool) "shutdown acknowledged" true
    (bool_member "stopping" (expect_ok bye));
  (* The server loop exits and unlinks its socket. *)
  let rec wait n =
    if Sys.file_exists path && n > 0 then (Unix.sleepf 0.05; wait (n - 1))
  in
  wait 40;
  Alcotest.(check bool) "socket path unlinked" false (Sys.file_exists path)

let test_tcp_end_to_end () =
  serve_in_thread (`Tcp 0) @@ fun address ->
  (match address with
  | `Tcp port -> Alcotest.(check bool) "kernel picked a port" true (port > 0)
  | `Unix _ -> Alcotest.fail "expected a TCP address");
  Client.with_connection address @@ fun conn ->
  let ping = parse_response (Client.request conn {|{"verb":"ping"}|}) in
  Alcotest.(check bool) "pong over TCP" true (bool_member "pong" (expect_ok ping));
  ignore (Client.request conn {|{"verb":"shutdown"}|})

let test_shutdown_drains_pipelined_requests () =
  serve_in_thread (`Tcp 0) @@ fun address ->
  let conn = Client.connect address in
  (* Both lines land in one write: the ping is already buffered when
     the shutdown executes, so the drain must still answer it. *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match address with
  | `Tcp port ->
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  | `Unix path -> Unix.connect fd (Unix.ADDR_UNIX path));
  let payload = {|{"id":1,"verb":"shutdown"}|} ^ "\n" ^ {|{"id":2,"verb":"ping"}|} ^ "\n" in
  ignore (Unix.write_substring fd payload 0 (String.length payload));
  let ic = Unix.in_channel_of_descr fd in
  let l1 = parse_response (input_line ic) in
  let l2 = parse_response (input_line ic) in
  Alcotest.(check bool) "shutdown answered" true
    (bool_member "stopping" (expect_ok l1));
  Alcotest.(check bool) "pipelined ping drained" true
    (bool_member "pong" (expect_ok l2));
  Unix.close fd;
  Client.close conn

let test_oversized_line_resync () =
  serve_in_thread ~max_line_bytes:1024 (`Tcp 0) @@ fun address ->
  Client.with_connection address @@ fun conn ->
  let flood = String.make 5000 'x' in
  let r1 = parse_response (Client.request conn flood) in
  expect_error ~kind:"invalid-input" ~exit_code:2 r1;
  Alcotest.(check bool) "error names the limit" true
    (contains ~needle:"exceeds" (string_member "message" r1));
  let r2 = parse_response (Client.request conn {|{"verb":"ping"}|}) in
  Alcotest.(check bool) "connection resynchronised" true
    (bool_member "pong" (expect_ok r2));
  ignore (Client.request conn {|{"verb":"shutdown"}|})

let test_partial_line_eof_dropped () =
  serve_in_thread (`Tcp 0) @@ fun address ->
  (* First client sends half a request and hangs up. *)
  (Client.with_connection address @@ fun conn ->
   ignore conn);
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match address with
  | `Tcp port ->
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  | `Unix path -> Unix.connect fd (Unix.ADDR_UNIX path));
  let partial = {|{"verb":"pi|} in
  ignore (Unix.write_substring fd partial 0 (String.length partial));
  Unix.close fd;
  Unix.sleepf 0.1;
  (* Second client: the daemon is still alive and well. *)
  Client.with_connection address @@ fun conn ->
  let r = parse_response (Client.request conn {|{"verb":"ping"}|}) in
  Alcotest.(check bool) "daemon alive after partial-line EOF" true
    (bool_member "pong" (expect_ok r));
  ignore (Client.request conn {|{"verb":"shutdown"}|})

(* --- admission control --- *)

let raw_connect address =
  match address with
  | `Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    fd
  | `Unix path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd

let test_overload_sheds_deterministically () =
  (* Capacity max_inflight + max_queue = 2.  The injected stall parks
     the single worker on the first request for 400 ms, so of five
     lines landing in one write exactly two are admitted (one
     executing, one queued) and three are shed — no matter how the
     threads are scheduled, because admission counts submissions minus
     completions and nothing can complete while the worker stalls. *)
  let sink = Telemetry.create () in
  let fault = Fault.create (Fault.parse_exn "seed=1;serve.dispatch:stall=400ms:key=0") in
  serve_in_thread ~sink ~fault ~max_inflight:1 ~max_queue:1 (`Tcp 0)
  @@ fun address ->
  let fd = raw_connect address in
  let payload =
    String.concat ""
      (List.init 5 (fun i ->
           Printf.sprintf {|{"id":%d,"verb":"ping"}|} i ^ "\n"))
  in
  ignore (Unix.write_substring fd payload 0 (String.length payload));
  let ic = Unix.in_channel_of_descr fd in
  let responses = List.init 5 (fun _ -> parse_response (input_line ic)) in
  Unix.close fd;
  (* Responses come back in arrival order: the stalled ping, the queued
     ping, then the three rejects. *)
  List.iteri
    (fun i r ->
      Alcotest.(check int)
        (Printf.sprintf "response %d is for request %d" i i)
        i (int_member "id" r))
    (List.filteri (fun i _ -> i < 2) responses);
  List.iteri
    (fun i r ->
      if i < 2 then
        Alcotest.(check bool)
          (Printf.sprintf "request %d admitted" i)
          true
          (bool_member "pong" (expect_ok r))
      else begin
        expect_error ~kind:"overloaded" ~exit_code:6 r;
        Alcotest.(check bool)
          (Printf.sprintf "request %d names the limit" i)
          true
          (contains ~needle:"(limit 2)" (string_member "message" r))
      end)
    responses;
  (* The scheduler view and the telemetry counter agree with the wire:
     exactly three sheds. *)
  Client.with_connection address @@ fun conn ->
  let stats = parse_response (Client.request conn {|{"verb":"stats"}|}) in
  let serve = member "serve" (expect_ok stats) in
  Alcotest.(check int) "stats shed count" 3 (int_member "shed" serve);
  Alcotest.(check int) "stats max_inflight" 1 (int_member "max_inflight" serve);
  Alcotest.(check int) "stats max_queue" 1 (int_member "max_queue" serve);
  Alcotest.(check (option int)) "serve.shed telemetry matches exactly"
    (Some 3)
    (List.assoc_opt "serve.shed" (Telemetry.counters sink));
  let bye = parse_response (Client.request conn {|{"verb":"shutdown"}|}) in
  let payload = expect_ok bye in
  Alcotest.(check int) "shutdown reports the shed split" 3
    (int_member "shed" payload);
  Alcotest.(check bool) "shutdown reports a drain count" true
    (int_member "draining" payload >= 0)

let test_dispatch_fault_classified () =
  (* An injected serve.dispatch crash (keyed by global arrival index,
     so exactly the second request) must come back as a classified
     worker-crash response and leave the daemon serving. *)
  let fault = Fault.create (Fault.parse_exn "seed=1;serve.dispatch:crash:key=1") in
  serve_in_thread ~fault (`Tcp 0) @@ fun address ->
  Client.with_connection address @@ fun conn ->
  let r0 = parse_response (Client.request conn {|{"verb":"ping"}|}) in
  Alcotest.(check bool) "first request clean" true
    (bool_member "pong" (expect_ok r0));
  let r1 = parse_response (Client.request conn {|{"verb":"ping"}|}) in
  expect_error ~kind:"worker-crash" ~exit_code:4 r1;
  Alcotest.(check bool) "error names the site" true
    (contains ~needle:"serve.dispatch" (string_member "message" r1));
  let r2 = parse_response (Client.request conn {|{"verb":"ping"}|}) in
  Alcotest.(check bool) "daemon survives the injected crash" true
    (bool_member "pong" (expect_ok r2));
  ignore (Client.request conn {|{"verb":"shutdown"}|})

(* --- client deadlines & idle reaping --- *)

let test_client_timeout_on_wedged_daemon () =
  (* A listener that accepts and never answers: the pre-hardening
     client would block forever; with a deadline it must raise the
     taxonomy Timeout (exit 3). *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 1;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Client.with_connection ~timeout_s:0.2 (`Tcp port) @@ fun conn ->
  match Client.request conn {|{"verb":"ping"}|} with
  | (_ : string) -> Alcotest.fail "expected the client deadline to fire"
  | exception E.Error (E.Timeout { site; seconds } as err) ->
    Alcotest.(check string) "timeout site" "client.read" site;
    Alcotest.(check (option (float 0.))) "timeout carries the deadline"
      (Some 0.2) seconds;
    Alcotest.(check int) "timeout exit code" 3 (E.exit_code err)

let test_idle_and_slowloris_reaped () =
  serve_in_thread ~idle_timeout_s:0.2 (`Tcp 0) @@ fun address ->
  (* A silent connection and one drip-feeding half a line both get
     reaped once the deadline passes: the daemon closes them (read
     returns EOF) instead of holding the fd forever. *)
  let silent = raw_connect address in
  let drip = raw_connect address in
  let partial = {|{"verb":"pi|} in
  ignore (Unix.write_substring drip partial 0 (String.length partial));
  let eof fd what =
    let b = Bytes.create 16 in
    match Unix.read fd b 0 16 with
    | 0 -> ()
    | n -> Alcotest.failf "%s: expected EOF, got %d bytes" what n
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  eof silent "silent connection";
  eof drip "slow-read connection";
  Unix.close silent;
  Unix.close drip;
  (* An active client is untouched and the daemon still answers. *)
  Client.with_connection address @@ fun conn ->
  let r = parse_response (Client.request conn {|{"verb":"ping"}|}) in
  Alcotest.(check bool) "daemon alive after reaping idlers" true
    (bool_member "pong" (expect_ok r));
  ignore (Client.request conn {|{"verb":"shutdown"}|})

(* --- crash-safe cache persistence --- *)

let persist_line =
  {|{"verb":"yield","params":{"code":"BGC","length":8},"exec":{"seed":31,"mc_samples":200}}|}

let with_cache_file k =
  let path = Filename.temp_file "nanodec-test-snap" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> k path)

(* One daemon lifetime answering [persist_line]; the graceful drain
   writes the snapshot before [daemon_session] returns. *)
let persist_once ~cache_file =
  daemon_session ~cache_file @@ fun conn ->
  parse_response (Client.request conn persist_line)

let test_snapshot_survives_restart () =
  with_cache_file @@ fun cache_file ->
  let cold = persist_once ~cache_file in
  Alcotest.(check bool) "first daemon computes cold" false
    (bool_member "cached" cold);
  let warm = persist_once ~cache_file in
  Alcotest.(check bool) "restarted daemon serves from the snapshot" true
    (bool_member "cached" warm);
  Alcotest.(check string) "warm result ≡ pre-restart bytes"
    (Json.to_string (member "result" cold))
    (Json.to_string (member "result" warm))

let test_corrupt_snapshot_starts_cold () =
  (* Truncation, bit flips and zero fill: every mutilation must cost
     exactly the warm cache — the daemon starts cold, answers the same
     bytes, and never crashes. *)
  let corruptions =
    [
      ("truncated", fun bytes -> String.sub bytes 0 (String.length bytes / 2));
      ( "bit-flipped",
        fun bytes ->
          let b = Bytes.of_string bytes in
          let i = Bytes.length b / 2 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
          Bytes.to_string b );
      ("zero-filled", fun bytes -> String.make (String.length bytes) '\000');
    ]
  in
  with_cache_file @@ fun cache_file ->
  let reference = persist_once ~cache_file in
  let reference_result = Json.to_string (member "result" reference) in
  List.iter
    (fun (what, mutilate) ->
      (* Re-seed a valid snapshot, then mutilate it. *)
      ignore (persist_once ~cache_file);
      let ic = open_in_bin cache_file in
      let bytes = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin cache_file in
      output_string oc (mutilate bytes);
      close_out oc;
      let r = persist_once ~cache_file in
      Alcotest.(check bool) (what ^ ": daemon starts cold") false
        (bool_member "cached" r);
      Alcotest.(check string) (what ^ ": cold recompute ≡ reference bytes")
        reference_result
        (Json.to_string (member "result" r)))
    corruptions

(* --- the 8-client soak ---

   Every client sends the same request list; the daemon executes
   serially, so after a warmup pass primes the cache every response is
   a hit and must be byte-identical across clients — and across domain
   counts, by the Monte-Carlo determinism contract. *)

let soak_requests =
  List.map
    (fun seed ->
      Printf.sprintf
        {|{"verb":"yield","params":{"code":"BGC","length":8},"exec":{"seed":%d,"mc_samples":200}}|}
        seed)
    [ 1; 2; 3; 4 ]
  @ [
      (* An active fault plan bypasses the result cache, so all eight
         clients execute this concurrently on private pools.  Injected
         delays are byte-neutral by the transparency contract but
         scramble chunk completion timing — the hardest regime for the
         server's arrival-order response writer, which must keep the
         concurrency invisible on the wire regardless. *)
      {|{"verb":"yield","params":{"code":"BGC","length":8},"exec":{"seed":5,"mc_samples":200,"fault_plan":"seed=2009;pool.chunk:delay=2ms:p=0.5;mc.sample_batch:delay=1ms:p=0.3"}}|};
    ]

let run_soak ?batch_window_s ?cache_enabled ?sink ?(warmup = true)
    ?(requests = fun _ -> soak_requests) ~domains () =
  serve_in_thread ?batch_window_s ?cache_enabled ?sink ~domains (`Tcp 0)
  @@ fun address ->
  (* Warmup: prime the cache so the soak responses all carry
     cached=true and are therefore byte-comparable.  Skipped for the
     cache-disabled soaks, where every response is a fresh build and
     byte-comparable by the determinism contract alone. *)
  if warmup then
    Client.with_connection address (fun conn ->
        List.iter (fun line -> ignore (Client.request conn line)) soak_requests);
  let results = Array.make 8 [] in
  let clients =
    List.init 8 (fun i ->
        Thread.create
          (fun () ->
            Client.with_connection address @@ fun conn ->
            results.(i) <-
              List.map (fun line -> Client.request conn line) (requests i))
          ())
  in
  List.iter Thread.join clients;
  (Client.with_connection address @@ fun conn ->
   ignore (Client.request conn {|{"verb":"shutdown"}|}));
  Array.to_list results

(* A cold-then-warm soak: each client owns its estimate keys (its own
   seeds), so its first [yield] and [evaluate] are misses and their
   repeats — four of its seven requests — are warm hits answered on the
   select thread, while the fault-plan request keeps a worker busy.
   Every client's stream is deterministic: the byte-for-byte answer a
   fresh [Protocol.handle_line] state gives the same lines. *)
let warm_repeat_requests i =
  let y =
    Printf.sprintf
      {|{"id":"y%d","verb":"yield","params":{"code":"BGC","length":8},"exec":{"seed":%d,"mc_samples":200}}|}
      i (100 + i)
  in
  let e =
    Printf.sprintf
      {|{"id":"e%d","verb":"evaluate","params":{"code":"TC","length":8},"exec":{"seed":%d,"mc_samples":200}}|}
      i (200 + i)
  in
  [ y; e; y; List.nth soak_requests 4; e; y; e ]

let warm_repeats_per_client = 4

let serial_reference requests =
  with_state @@ fun state -> List.map (Protocol.handle_line state) requests

let check_warm_repeat_soak ~what results =
  List.iteri
    (fun i responses ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s: client %d = serial handle_line bytes" what i)
        (serial_reference (warm_repeat_requests i))
        responses)
    results

let test_concurrent_soak_deterministic () =
  let soak1 = run_soak ~domains:1 () in
  let soak4 = run_soak ~domains:4 () in
  let reference = List.hd soak1 in
  List.iteri
    (fun i responses ->
      Alcotest.(check (list string))
        (Printf.sprintf "domains=1 client %d matches client 0" i)
        reference responses)
    soak1;
  List.iteri
    (fun i responses ->
      Alcotest.(check (list string))
        (Printf.sprintf "domains=4 client %d matches the domains=1 bytes" i)
        reference responses)
    soak4

(* Batch fusion is pure scheduling: the same soak (including its
   fault-plan request, which is unfusable and rides the Single path
   through a batching daemon) with a 2 ms window must produce the same
   bytes as the unbatched daemon, at domains 1 and 4 alike.  The
   cold-then-warm soak, whose warm repeats answer inline while cold
   requests fuse or dispatch, must match a serial run in all four
   configurations. *)
let test_batched_soak_identical () =
  let reference = List.hd (run_soak ~domains:1 ()) in
  List.iter
    (fun domains ->
      List.iteri
        (fun i responses ->
          Alcotest.(check (list string))
            (Printf.sprintf "domains=%d batched client %d = unbatched bytes"
               domains i)
            reference responses)
        (run_soak ~batch_window_s:0.002 ~domains ()))
    [ 1; 4 ];
  List.iter
    (fun (domains, batch_window_s) ->
      check_warm_repeat_soak
        ~what:
          (Printf.sprintf "warm-repeat soak, domains=%d, batching %s" domains
             (if batch_window_s = None then "off" else "on"))
        (run_soak ?batch_window_s ~warmup:false ~requests:warm_repeat_requests
           ~domains ()))
    [ (1, None); (1, Some 0.002); (4, None); (4, Some 0.002) ]

(* With the result cache disabled every request is a fresh cold build,
   so concurrent duplicates actually fuse — and the bytes still cannot
   move. *)
let test_batched_soak_uncached_identical () =
  let reference = List.hd (run_soak ~cache_enabled:false ~warmup:false ~domains:1 ()) in
  List.iteri
    (fun i responses ->
      Alcotest.(check (list string))
        (Printf.sprintf "uncached batched client %d = uncached unbatched bytes" i)
        reference responses)
    (run_soak ~batch_window_s:0.002 ~cache_enabled:false ~warmup:false
       ~domains:4 ())

(* An injected serve.batch crash (or an active delay plan) during the
   soak: every fused batch that hits it falls back to per-request
   execution — responses must not move a byte. *)
let test_batched_soak_under_fault_identical () =
  let reference =
    List.hd (run_soak ~cache_enabled:false ~warmup:false ~domains:1 ())
  in
  List.iter
    (fun plan ->
      let fault = Fault.create (Fault.parse_exn plan) in
      serve_in_thread ~fault ~batch_window_s:0.002 ~cache_enabled:false
        ~domains:4 (`Tcp 0)
      @@ fun address ->
      let results = Array.make 4 [] in
      let clients =
        List.init 4 (fun i ->
            Thread.create
              (fun () ->
                Client.with_connection address @@ fun conn ->
                results.(i) <-
                  List.map (fun line -> Client.request conn line) soak_requests)
              ())
      in
      List.iter Thread.join clients;
      (Client.with_connection address @@ fun conn ->
       ignore (Client.request conn {|{"verb":"shutdown"}|}));
      Array.iteri
        (fun i responses ->
          Alcotest.(check (list string))
            (Printf.sprintf "client %d under %s = fault-free bytes" i plan)
            reference responses)
        results)
    [
      "seed=3;serve.batch:crash:p=1";
      "seed=4;serve.batch:delay=1ms:p=1;mc.sample_batch:delay=1ms:p=0.2";
    ]

(* --- the batcher itself --- *)

let test_batcher_mechanics () =
  let b = Batcher.create ~window_s:0.005 ~max_batch:3 in
  Alcotest.(check int) "empty" 0 (Batcher.length b);
  Alcotest.(check bool) "deadline unarmed" true (Batcher.deadline b = None);
  Batcher.add b "a" ~now:1.0;
  Alcotest.(check (option (float 1e-9))) "first add arms the deadline"
    (Some 1.005) (Batcher.deadline b);
  Batcher.add b "b" ~now:1.002;
  Alcotest.(check (option (float 1e-9))) "later adds leave it"
    (Some 1.005) (Batcher.deadline b);
  Batcher.add b "c" ~now:1.004;
  Alcotest.(check int) "buffered" 3 (Batcher.length b);
  let xs, ord0 = Batcher.take b ~reason:`Full in
  Alcotest.(check (list string)) "arrival order" [ "a"; "b"; "c" ] xs;
  Alcotest.(check int) "first fused ordinal" 0 ord0;
  Alcotest.(check int) "drained" 0 (Batcher.length b);
  Alcotest.(check bool) "deadline disarmed" true (Batcher.deadline b = None);
  Batcher.add b "d" ~now:2.0;
  let xs, ord1 = Batcher.take b ~reason:`Window in
  Alcotest.(check (list string)) "singleton flush" [ "d" ] xs;
  Alcotest.(check int) "singleton sees the next ordinal" 1 ord1;
  Batcher.add b "e" ~now:3.0;
  Batcher.add b "f" ~now:3.001;
  let xs, ord2 = Batcher.take b ~reason:`Drain in
  Alcotest.(check (list string)) "drain order" [ "e"; "f" ] xs;
  Alcotest.(check int) "singleton did not advance the ordinal" 1 ord2;
  let v = Batcher.view b in
  Alcotest.(check int) "fused batches" 2 v.Protocol.batches;
  Alcotest.(check int) "fused requests" 5 v.Protocol.fused_requests;
  Alcotest.(check int) "window flushes" 1 v.Protocol.flush_window;
  Alcotest.(check int) "full flushes" 1 v.Protocol.flush_full;
  Alcotest.(check int) "drain flushes" 1 v.Protocol.flush_drain;
  Alcotest.(check int) "p50 size" 2 v.Protocol.size_p50;
  Alcotest.(check int) "max size" 3 v.Protocol.size_max;
  Alcotest.check_raises "window_s must be positive"
    (Invalid_argument "Batcher.create: window_s must be > 0") (fun () ->
      ignore (Batcher.create ~window_s:0. ~max_batch:4));
  Alcotest.check_raises "max_batch must be >= 2"
    (Invalid_argument "Batcher.create: max_batch must be >= 2") (fun () ->
      ignore (Batcher.create ~window_s:0.001 ~max_batch:1))

(* The permutation oracle: fusing ANY arrival order of K queued fusable
   requests — classify, one [Batcher.prepare] mega-run, then per-request
   execution against the overlay — answers every request byte-identically
   to a fresh unfused daemon handling it.  Order must be invisible
   because each item keeps its own seed-derived stream family. *)
let test_fusion_permutation_oracle () =
  let lines =
    [
      {|{"verb":"evaluate","params":{"code":"BGC","length":8},"exec":{"seed":21,"mc_samples":60}}|};
      {|{"verb":"evaluate","params":{"code":"TC","length":8},"exec":{"seed":22,"mc_samples":80}}|};
      {|{"verb":"yield","params":{"code":"HC","length":6},"exec":{"seed":23,"mc_samples":60}}|};
      {|{"verb":"yield","params":{"code":"BGC","length":8},"exec":{"seed":24,"mc_samples":100,"method":"stratified:4"}}|};
    ]
  in
  let reference =
    with_state @@ fun state ->
    List.map (fun l -> (l, Protocol.handle_line state l)) lines
  in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun p -> x :: p)
            (permutations (List.filter (fun y -> y != x) l)))
        l
  in
  List.iter
    (fun perm ->
      with_state @@ fun state ->
      let plans =
        List.map
          (fun l ->
            match Protocol.classify_fusable state l with
            | Some p -> p
            | None -> Alcotest.failf "request unexpectedly unfusable: %s" l)
          perm
      in
      let overlay =
        match Batcher.prepare ~state ~ordinal:0 plans with
        | Some o -> o
        | None -> Alcotest.fail "prepare fell back without a fault"
      in
      List.iter
        (fun line ->
          Alcotest.(check string)
            ("fused response to " ^ line)
            (List.assoc line reference)
            (Protocol.handle_line ~overlay state line))
        perm)
    (permutations lines)

(* And with an injected serve.batch crash, [prepare] must decline (the
   server then re-executes each request unfused) — same bytes. *)
let test_prepare_crash_falls_back () =
  let fault = Fault.create (Fault.parse_exn "seed=1;serve.batch:crash:p=1") in
  let reference =
    with_state @@ fun state ->
    Protocol.handle_line state
      {|{"verb":"yield","params":{"code":"BGC","length":8},"exec":{"seed":31,"mc_samples":80}}|}
  in
  Run_ctx.with_ctx ~domains:2 ~fault @@ fun ctx ->
  let state = Protocol.make_state ~base:ctx () in
  let line =
    {|{"verb":"yield","params":{"code":"BGC","length":8},"exec":{"seed":31,"mc_samples":80}}|}
  in
  let plan =
    match Protocol.classify_fusable state line with
    | Some p -> p
    | None -> Alcotest.fail "request unexpectedly unfusable"
  in
  (match Batcher.prepare ~state ~ordinal:0 [ plan; plan ] with
  | None -> ()
  | Some _ -> Alcotest.fail "prepare survived a p=1 serve.batch crash");
  Alcotest.(check string) "fallback answers the unfused bytes" reference
    (Protocol.handle_line state line)

let test_stats_batch_view () =
  (* Unbatched daemon: the stats verb reports batch = null. *)
  (serve_in_thread (`Tcp 0) @@ fun address ->
   Client.with_connection address @@ fun conn ->
   let r = parse_response (Client.request conn {|{"verb":"stats"}|}) in
   let serve = member "serve" (expect_ok r) in
   Alcotest.(check bool) "batch null when fusion is off" true
     (member "batch" serve = Json.Null));
  (* Batched daemon: knobs echoed, counters coherent after traffic. *)
  serve_in_thread ~batch_window_s:0.002 ~max_batch:7 (`Tcp 0)
  @@ fun address ->
  Client.with_connection address @@ fun conn ->
  ignore
    (Client.request conn
       {|{"verb":"yield","params":{"code":"BGC","length":8},"exec":{"seed":41,"mc_samples":60}}|});
  let r = parse_response (Client.request conn {|{"verb":"stats"}|}) in
  let serve = member "serve" (expect_ok r) in
  let batch = member "batch" serve in
  Alcotest.(check (float 1e-9)) "window_ms" 2.0 (float_member "window_ms" batch);
  Alcotest.(check int) "max_batch" 7 (int_member "max_batch" batch);
  Alcotest.(check int) "nothing buffered at rest" 0
    (int_member "buffered" batch);
  (* A single serial client never fuses: its requests flush eagerly as
     singletons the moment they are the only outstanding work. *)
  Alcotest.(check int) "no fused batches from a serial client" 0
    (int_member "batches" batch);
  Alcotest.(check bool) "the cold request flushed through the window path"
    true
    (int_member "flush_window" batch >= 1)

(* --- inline warm hits --- *)

let stats_line = {|{"verb":"stats"}|}

(* What a serial run and a daemon must agree on in a [stats] result:
   the request/error counts, the cache counters and the resident keys
   (build and saved seconds are timings). *)
let stats_identity r =
  let result = expect_ok r in
  let cache = member "cache" result in
  ( List.map
      (fun f -> (f, int_member f result))
      [ "requests"; "errors" ]
    @ List.map
        (fun f -> (f, int_member f cache))
        [ "capacity"; "entries"; "hits"; "misses"; "evictions" ],
    Json.to_string (member "keys" result) )

let inline_count r = int_member "inline" (member "serve" (expect_ok r))

(* A daemon whose context carries a fault plan never answers inline —
   and every context picks up NANODEC_FAULT_PLAN, which the chaos CI
   job exports for the whole suite. *)
let expected_inline n = if Fault.of_env () = None then n else 0

(* The inline warm test covers every artifact key a request reads, not
   only its estimate.  A small cache evicts an [evaluate]'s report (or a
   [yield]'s analysis) while its estimate stays resident; such a repeat
   must take a worker, which rebuilds the evicted artifact — answering
   it inline would run [Design.evaluate] or [Cave.analyze] on the select
   thread.  Responses and cache accounting equal a serial run's. *)
let test_warm_check_covers_every_read () =
  let evaluate =
    {|{"verb":"evaluate","params":{"code":"BGC","length":8},"exec":{"seed":5,"mc_samples":200}}|}
  in
  let yield_ =
    {|{"verb":"yield","params":{"code":"HC","length":6},"exec":{"seed":6,"mc_samples":200}}|}
  in
  let codes = {|{"verb":"codes","params":{"code":"AHC","length":6,"count":4}}|} in
  List.iter
    (fun (what, cache_capacity, lines, repeat) ->
      (* The scenario: right before the repeat, its estimate is
         resident but the request as a whole is not warm. *)
      let reference =
        Run_ctx.with_ctx ~domains:2 @@ fun ctx ->
        let state = Protocol.make_state ~cache_capacity ~base:ctx () in
        let responses =
          List.map (fun l -> Protocol.handle_line state l) lines
        in
        let req = Protocol.prepare state repeat in
        (match Protocol.plan_of req with
        | Some p ->
          Alcotest.(check bool) (what ^ ": estimate still resident") true
            (Artifact_cache.mem (Protocol.artifacts state) p.Protocol.fuse_key)
        | None -> Alcotest.fail "repeat unexpectedly unfusable");
        Alcotest.(check bool) (what ^ ": repeat is not warm") false
          (Protocol.warm state req);
        responses
        @ List.map (Protocol.handle_line state) [ repeat; stats_line ]
      in
      List.iter
        (fun batch_window_s ->
          serve_in_thread ?batch_window_s ~cache_capacity (`Tcp 0)
          @@ fun address ->
          Client.with_connection address @@ fun conn ->
          let responses =
            List.map (Client.request conn) (lines @ [ repeat; stats_line ])
          in
          ignore (Client.request conn {|{"verb":"shutdown"}|});
          let n = List.length responses in
          Alcotest.(check (list string))
            (what ^ ": responses byte-identical to the serial run")
            (List.filteri (fun i _ -> i < n - 1) reference)
            (List.filteri (fun i _ -> i < n - 1) responses);
          let stats = parse_response (List.nth responses (n - 1)) in
          Alcotest.(check int) (what ^ ": the repeat went through a worker") 0
            (inline_count stats);
          let expected_counts, expected_keys =
            stats_identity (parse_response (List.nth reference (n - 1)))
          in
          let counts, keys = stats_identity stats in
          Alcotest.(check (list (pair string int)))
            (what ^ ": cache stats equal the serial run")
            expected_counts counts;
          Alcotest.(check string) (what ^ ": resident keys equal the serial run")
            expected_keys keys)
        [ None; Some 0.002 ])
    [
      (* report, nu, analysis, kernel, estimate: the fifth insert evicts
         the report *)
      ("evaluate", 4, [ evaluate ], evaluate);
      (* nu, analysis, kernel, estimate, then the codes' words: the
         second eviction takes the analysis *)
      ("yield", 3, [ yield_; codes ], yield_);
    ]

(* A warm hit answered inline still waits its turn: one write carrying a
   cold [yield], a warm [evaluate] and a [ping] comes back in arrival
   order, the inline answer held in [pending] until the cold one is
   written. *)
let test_inline_hit_keeps_arrival_order () =
  let warm =
    {|{"id":2,"verb":"evaluate","params":{"code":"BGC","length":8},"exec":{"seed":7,"mc_samples":200}}|}
  in
  let cold =
    {|{"id":1,"verb":"yield","params":{"code":"TC","length":8},"exec":{"seed":9,"mc_samples":20000}}|}
  in
  let ping = {|{"id":3,"verb":"ping"}|} in
  let reference = serial_reference [ warm; cold; warm; ping ] in
  List.iter
    (fun batch_window_s ->
      serve_in_thread ?batch_window_s (`Tcp 0) @@ fun address ->
      Client.with_connection address (fun conn ->
          Alcotest.(check string) "warm-up is the cold evaluate"
            (List.nth reference 0) (Client.request conn warm));
      let fd = raw_connect address in
      let payload = String.concat "\n" [ cold; warm; ping ] ^ "\n" in
      ignore (Unix.write_substring fd payload 0 (String.length payload));
      let ic = Unix.in_channel_of_descr fd in
      let responses = List.init 3 (fun _ -> input_line ic) in
      Unix.close fd;
      Alcotest.(check (list string)) "arrival order, serial bytes"
        (List.tl reference) responses;
      Client.with_connection address @@ fun conn ->
      let stats = parse_response (Client.request conn stats_line) in
      Alcotest.(check int) "exactly the warm evaluate ran inline"
        (expected_inline 1) (inline_count stats);
      ignore (Client.request conn {|{"verb":"shutdown"}|}))
    [ None; Some 0.002 ]

(* Telemetry is a pure observer of the inline path too: the cold-then-
   warm soak answers the same bytes with a sink as without, counts its
   inline hits exactly, and records every request — inline or not — in
   the [serve.request_s] histogram. *)
let test_inline_telemetry_transparent () =
  let bare = run_soak ~warmup:false ~requests:warm_repeat_requests ~domains:2 () in
  let sink = Telemetry.create () in
  let traced =
    run_soak ~sink ~warmup:false ~requests:warm_repeat_requests ~domains:2 ()
  in
  Alcotest.(check (list (list string))) "telemetry on = telemetry off" bare traced;
  check_warm_repeat_soak ~what:"traced soak" traced;
  let clients = List.length traced in
  Alcotest.(check int) "serve.inline counts every warm repeat"
    (expected_inline (clients * warm_repeats_per_client))
    (Option.value ~default:0
       (List.assoc_opt "serve.inline" (Telemetry.counters sink)));
  (* every soak request plus the shutdown *)
  let executed = 1 + List.fold_left (fun a r -> a + List.length r) 0 traced in
  Alcotest.(check (option int)) "serve.requests counts inline hits"
    (Some executed)
    (List.assoc_opt "serve.requests" (Telemetry.counters sink));
  let request_s =
    List.find
      (fun h -> h.Telemetry.hs_name = "serve.request_s")
      (Telemetry.histograms sink)
  in
  Alcotest.(check int) "serve.request_s population unchanged" executed
    request_s.Telemetry.hs_count

let suite =
  [
    Alcotest.test_case "ping round trip" `Quick test_ping;
    Alcotest.test_case "evaluate matches Design.evaluate" `Quick
      test_evaluate_matches_direct;
    Alcotest.test_case "evaluate mc matches the direct estimate" `Quick
      test_evaluate_mc_matches_direct;
    Alcotest.test_case "cached flag, hit ≡ cold bytes" `Quick
      test_cached_flag_and_identical_result;
    Alcotest.test_case "yield defaults" `Quick test_yield_defaults;
    Alcotest.test_case "per-request seed isolation" `Quick test_seed_isolation;
    Alcotest.test_case "daemon = standalone sequential run" `Quick
      test_matches_standalone_sequential_run;
    Alcotest.test_case "codes round trip" `Quick test_codes_round_trip;
    Alcotest.test_case "sweep round trip" `Quick test_sweep_round_trip;
    Alcotest.test_case "check verb" `Quick test_check_verb;
    Alcotest.test_case "stats counters" `Quick test_stats_counts;
    Alcotest.test_case "shutdown flag" `Quick test_shutdown_flag;
    Alcotest.test_case "unknown verb" `Quick test_unknown_verb;
    Alcotest.test_case "malformed JSON leaves the daemon alive" `Quick
      test_malformed_json_then_alive;
    Alcotest.test_case "non-object requests rejected" `Quick
      test_non_object_request;
    Alcotest.test_case "invalid numerics rejected uniformly" `Quick
      test_invalid_numerics;
    Alcotest.test_case "protocol fuzz battery" `Quick test_fuzz_battery;
    Alcotest.test_case "timeout maps to kind=timeout" `Quick
      test_timeout_mapping;
    Alcotest.test_case "no-degrade maps to kind=degraded" `Quick
      test_no_degrade_mapping;
    Alcotest.test_case "unix socket end to end" `Quick
      test_unix_socket_end_to_end;
    Alcotest.test_case "tcp end to end" `Quick test_tcp_end_to_end;
    Alcotest.test_case "shutdown drains pipelined requests" `Quick
      test_shutdown_drains_pipelined_requests;
    Alcotest.test_case "oversized line resync" `Quick
      test_oversized_line_resync;
    Alcotest.test_case "partial line at EOF dropped" `Quick
      test_partial_line_eof_dropped;
    Alcotest.test_case "overload sheds deterministically" `Quick
      test_overload_sheds_deterministically;
    Alcotest.test_case "serve.dispatch fault classified, daemon survives"
      `Quick test_dispatch_fault_classified;
    Alcotest.test_case "client deadline on a wedged daemon" `Quick
      test_client_timeout_on_wedged_daemon;
    Alcotest.test_case "idle and slow-read connections reaped" `Quick
      test_idle_and_slowloris_reaped;
    Alcotest.test_case "snapshot survives a restart" `Quick
      test_snapshot_survives_restart;
    Alcotest.test_case "corrupt snapshot starts cold, never crashes" `Quick
      test_corrupt_snapshot_starts_cold;
    Alcotest.test_case "8-client soak, domains 1 = domains 4" `Quick
      test_concurrent_soak_deterministic;
    Alcotest.test_case "batcher buffer mechanics and stats" `Quick
      test_batcher_mechanics;
    Alcotest.test_case "fusion permutation oracle (24 orders)" `Quick
      test_fusion_permutation_oracle;
    Alcotest.test_case "serve.batch crash falls back to unfused bytes" `Quick
      test_prepare_crash_falls_back;
    Alcotest.test_case "stats reports the batch view" `Quick
      test_stats_batch_view;
    Alcotest.test_case "batched soak = unbatched bytes, domains 1 and 4"
      `Quick test_batched_soak_identical;
    Alcotest.test_case "uncached batched soak = unbatched bytes" `Quick
      test_batched_soak_uncached_identical;
    Alcotest.test_case "batched soak under fault plans = fault-free bytes"
      `Quick test_batched_soak_under_fault_identical;
    Alcotest.test_case "inline warm test covers every read key" `Quick
      test_warm_check_covers_every_read;
    Alcotest.test_case "inline hit keeps arrival order" `Quick
      test_inline_hit_keeps_arrival_order;
    Alcotest.test_case "telemetry on = off across inline hits" `Quick
      test_inline_telemetry_transparent;
  ]

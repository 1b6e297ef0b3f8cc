(* Telemetry sink: spans, counters, histograms, export, and the
   Run_ctx execution-context API built on top of it.

   The headline properties: recording is domain-safe and exception-safe,
   exported span trees are always well-formed (even under a
   non-monotonic wall clock), the JSON export is syntactically valid,
   and a context never changes numeric results — the bitwise
   telemetry-on/off oracle lives in lib/proptest/oracles.ml; here we
   test the machinery itself. *)

open Nanodec_parallel
module Telemetry = Nanodec_telemetry.Telemetry

(* --- counters --- *)

let test_counters () =
  let sink = Telemetry.create () in
  let c = Telemetry.counter sink "alpha" in
  Telemetry.incr c;
  Telemetry.add c 41;
  Alcotest.(check int) "handle value" 42 (Telemetry.counter_value c);
  Alcotest.(check string) "handle name" "alpha" (Telemetry.counter_name c);
  let c' = Telemetry.counter sink "alpha" in
  Telemetry.incr c';
  Alcotest.(check int) "same name, same cell" 43 (Telemetry.counter_value c);
  Telemetry.count (Some sink) "beta" 7;
  Telemetry.count None "ignored" 99;
  Alcotest.(check (list (pair string int)))
    "export, sorted by name"
    [ ("alpha", 43); ("beta", 7) ]
    (List.sort compare (Telemetry.counters sink))

(* --- histograms --- *)

let test_histograms () =
  let sink = Telemetry.create () in
  let h = Telemetry.histogram sink "lat" in
  Telemetry.observe h 0.001;
  Telemetry.observe h 0.004;
  Telemetry.observe h (-1.0) (* clamps to 0 *);
  Telemetry.record (Some sink) "lat" 0.002;
  Telemetry.record None "ignored" 1.0;
  match Telemetry.histograms sink with
  | [ hs ] ->
    Alcotest.(check string) "name" "lat" hs.Telemetry.hs_name;
    Alcotest.(check int) "count" 4 hs.Telemetry.hs_count;
    Alcotest.(check (float 1e-9)) "sum" 0.007 hs.Telemetry.hs_sum_s;
    Alcotest.(check (float 1e-12)) "min clamped to 0" 0. hs.Telemetry.hs_min_s;
    Alcotest.(check (float 1e-9)) "max" 0.004 hs.Telemetry.hs_max_s;
    let bucketed =
      List.fold_left (fun acc (_, n) -> acc + n) 0 hs.Telemetry.hs_buckets
    in
    Alcotest.(check int) "every observation bucketed" 4 bucketed;
    List.iter
      (fun (upper, _) ->
        Alcotest.(check bool) "bucket bounds positive" true (upper > 0.))
      hs.Telemetry.hs_buckets
  | other ->
    Alcotest.failf "expected exactly one histogram, got %d" (List.length other)

(* --- spans --- *)

let test_span_nesting () =
  let sink = Telemetry.create () in
  let tel = Some sink in
  Telemetry.with_span tel "outer" (fun () ->
      Telemetry.with_span tel "inner-1" (fun () -> ());
      Telemetry.with_span tel "inner-2" (fun () -> ()));
  Telemetry.with_span tel "second-root" (fun () -> ());
  Alcotest.(check bool) "well-formed" true (Telemetry.well_formed sink);
  match Telemetry.span_trees sink with
  | [ outer; second ] ->
    Alcotest.(check string) "root 1" "outer" outer.Telemetry.span_name;
    Alcotest.(check string) "root 2" "second-root" second.Telemetry.span_name;
    Alcotest.(check (list string))
      "children in start order" [ "inner-1"; "inner-2" ]
      (List.map
         (fun s -> s.Telemetry.span_name)
         outer.Telemetry.children);
    Alcotest.(check (list string)) "no grandchildren" []
      (List.concat_map
         (fun s -> List.map (fun c -> c.Telemetry.span_name) s.Telemetry.children)
         outer.Telemetry.children)
  | other -> Alcotest.failf "expected 2 roots, got %d" (List.length other)

let test_span_exception_safe () =
  let sink = Telemetry.create () in
  (try
     Telemetry.with_span (Some sink) "explodes" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "well-formed after exception" true
    (Telemetry.well_formed sink);
  Alcotest.(check (list (pair string (pair int (float 1e9)))))
    "span closed and exported"
    [ ("explodes", (1, 0.)) ]
    (List.map
       (fun (n, (c, _)) -> (n, (c, 0.)))
       (Telemetry.span_totals sink))

let test_span_none_passthrough () =
  Alcotest.(check int) "with_span None is f ()" 42
    (Telemetry.with_span None "nothing" (fun () -> 42))

let test_non_monotonic_clock () =
  (* A wall clock stepping backwards (NTP) must not produce negative
     durations or ill-formed trees: the per-domain clamp holds time
     still until the clock catches up. *)
  let times = ref [ 0.0; 10.0; 5.0; 6.0; 20.0 ] in
  let clock () =
    match !times with
    | [ last ] -> last
    | t :: rest ->
      times := rest;
      t
    | [] -> assert false
  in
  let sink = Telemetry.create ~clock () in
  Telemetry.with_span (Some sink) "outer" (fun () ->
      Telemetry.with_span (Some sink) "inner" (fun () -> ()));
  Alcotest.(check bool) "well-formed despite clock step" true
    (Telemetry.well_formed sink)

let test_spans_across_domains () =
  let sink = Telemetry.create () in
  Pool.with_pool ~domains:4 ~telemetry:sink (fun pool ->
      let got =
        Pool.map pool
          (fun i ->
            Telemetry.with_span (Some sink) "chunk" (fun () -> i * i))
          (Array.init 32 Fun.id)
      in
      Alcotest.(check (array int)) "results unchanged"
        (Array.init 32 (fun i -> i * i))
        got);
  Alcotest.(check bool) "well-formed across domains" true
    (Telemetry.well_formed sink);
  let totals = Telemetry.span_totals sink in
  (match List.assoc_opt "chunk" totals with
  | Some (count, seconds) ->
    Alcotest.(check int) "every chunk span recorded" 32 count;
    Alcotest.(check bool) "non-negative total" true (seconds >= 0.)
  | None -> Alcotest.fail "chunk spans missing from totals");
  Alcotest.(check int) "nothing dropped" 0 (Telemetry.dropped_spans sink)

(* --- JSON export: a minimal recursive-descent validator --- *)

exception Bad_json of string

let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal word =
    String.iter expect word
  in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done
        | _ -> fail "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let number () =
    let digits () =
      let start = !pos in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        advance ()
      done;
      if !pos = start then fail "expected digit"
    in
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then (advance (); digits ());
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ())
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else
        let rec members () =
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or } in object"
        in
        members ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else
        let rec elements () =
          value ();
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ] in array"
        in
        elements ()
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "expected a JSON value"
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let test_json_export () =
  let sink = Telemetry.create () in
  Telemetry.with_span (Some sink) "needs \"escaping\"\n" (fun () ->
      Telemetry.with_span (Some sink) "child" (fun () -> ()));
  Telemetry.count (Some sink) "c\\slash" 3;
  Telemetry.record (Some sink) "h" 0.001;
  let json = Telemetry.to_json sink in
  (try validate_json json
   with Bad_json msg -> Alcotest.failf "invalid JSON (%s):\n%s" msg json);
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec at i =
      i + nl <= jl && (String.sub json i nl = needle || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "export mentions %S" needle)
        true (contains needle))
    [ "\"version\": 1"; "\"spans\""; "\"counters\""; "\"histograms\"" ]

let test_json_export_empty () =
  let sink = Telemetry.create () in
  try validate_json (Telemetry.to_json sink)
  with Bad_json msg -> Alcotest.failf "empty sink export invalid (%s)" msg

(* --- Run_ctx --- *)

let test_run_ctx_builder () =
  (* Sequential by default. *)
  Run_ctx.with_ctx (fun ctx ->
      Alcotest.(check bool) "no pool" true (Run_ctx.pool ctx = None);
      Alcotest.(check int) "default seed" Run_ctx.default_seed
        (Run_ctx.seed ctx);
      Alcotest.(check int) "default samples" Run_ctx.default_mc_samples
        (Run_ctx.mc_samples ctx);
      Alcotest.(check bool) "no sink" true (Run_ctx.telemetry ctx = None));
  (* ~domains spawns an owned pool and shutdown joins it. *)
  let escaped =
    Run_ctx.with_ctx ~domains:2 ~seed:7 ~mc_samples:10 (fun ctx ->
        match Run_ctx.pool ctx with
        | None -> Alcotest.fail "expected a pool"
        | Some pool ->
          Alcotest.(check int) "pool size" 2 (Pool.domains pool);
          Alcotest.(check int) "seed carried" 7 (Run_ctx.seed ctx);
          Alcotest.(check int) "samples carried" 10 (Run_ctx.mc_samples ctx);
          pool)
  in
  Alcotest.check_raises "owned pool joined on exit"
    (Invalid_argument "Pool: used after shutdown") (fun () ->
      ignore (Pool.map escaped Fun.id [| 1 |]))

(* Physical identity through an option (a fresh [Some] defeats [==]). *)
let is_same x = function Some y -> x == y | None -> false

let test_run_ctx_borrowed_pool () =
  Pool.with_pool ~domains:2 (fun pool ->
      let sink = Telemetry.create () in
      Run_ctx.with_ctx ~pool ~telemetry:sink (fun ctx ->
          Alcotest.(check bool) "same pool" true
            (is_same pool (Run_ctx.pool ctx));
          Alcotest.(check bool) "sink attached to borrowed pool" true
            (is_same sink (Pool.telemetry pool)));
      (* Borrowed pools survive the context. *)
      Alcotest.(check (array int)) "pool still usable" [| 1; 4; 9 |]
        (Pool.map pool (fun x -> x * x) [| 1; 2; 3 |]))

let test_run_ctx_validation () =
  Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.check_raises "domains and pool are exclusive"
        (Invalid_argument
           "Run_ctx.make: ~domains and ~pool are mutually exclusive")
        (fun () -> ignore (Run_ctx.make ~domains:2 ~pool ())));
  Alcotest.check_raises "negative mc_samples"
    (Invalid_argument "Run_ctx.make: mc_samples must be >= 0") (fun () ->
      ignore (Run_ctx.make ~mc_samples:(-1) ()))

let test_run_ctx_sequential () =
  (* The default every [?ctx] consumer falls back to.  The chaos job
     reruns the suite with NANODEC_FAULT_PLAN set, so "no fault" here
     also shows the constant ignores the environment. *)
  let c = Run_ctx.sequential in
  Alcotest.(check bool) "no pool" true (Run_ctx.pool c = None);
  Alcotest.(check bool) "no fault" true (Run_ctx.fault c = None);
  Alcotest.(check bool) "no telemetry" true (Run_ctx.telemetry c = None);
  Alcotest.(check int) "default seed" Run_ctx.default_seed (Run_ctx.seed c);
  Alcotest.(check int) "default samples" Run_ctx.default_mc_samples
    (Run_ctx.mc_samples c);
  Alcotest.(check bool) "Auto chunking" true
    (Run_ctx.chunking c = Run_ctx.Auto);
  Alcotest.(check bool) "Plain method" true
    (Run_ctx.mc_method c = Run_ctx.Plain)

let test_run_ctx_sequential_derivation () =
  (* A request derived from the constant sees its overrides; the
     constant itself keeps its defaults. *)
  Run_ctx.with_request ~base:Run_ctx.sequential ~seed:7 ~mc_samples:10
    ~chunking:(Run_ctx.Fixed 3) ~mc_method:Run_ctx.Antithetic ~warn:false
    (fun ctx ->
      Alcotest.(check int) "seed override" 7 (Run_ctx.seed ctx);
      Alcotest.(check int) "samples override" 10 (Run_ctx.mc_samples ctx);
      Alcotest.(check bool) "chunking override" true
        (Run_ctx.chunking ctx = Run_ctx.Fixed 3);
      Alcotest.(check bool) "method override" true
        (Run_ctx.mc_method ctx = Run_ctx.Antithetic);
      Alcotest.(check bool) "still no pool" true (Run_ctx.pool ctx = None));
  let c = Run_ctx.sequential in
  Alcotest.(check int) "seed kept" Run_ctx.default_seed (Run_ctx.seed c);
  Alcotest.(check int) "samples kept" Run_ctx.default_mc_samples
    (Run_ctx.mc_samples c);
  Alcotest.(check bool) "chunking kept" true
    (Run_ctx.chunking c = Run_ctx.Auto);
  Alcotest.(check bool) "method kept" true
    (Run_ctx.mc_method c = Run_ctx.Plain)

let test_run_ctx_make_matches_sequential () =
  (* [make ()] builds the same context as the constant in every knob
     but the fault engine, which [make] alone takes from the
     environment. *)
  let m = Run_ctx.make ~warn:false () and c = Run_ctx.sequential in
  Alcotest.(check bool) "pool" true
    (Run_ctx.pool m = None && Run_ctx.pool c = None);
  Alcotest.(check int) "seed" (Run_ctx.seed c) (Run_ctx.seed m);
  Alcotest.(check int) "samples" (Run_ctx.mc_samples c) (Run_ctx.mc_samples m);
  Alcotest.(check bool) "telemetry" true
    (Run_ctx.telemetry m = None && Run_ctx.telemetry c = None);
  Alcotest.(check (option (float 0.))) "timeout" (Run_ctx.timeout_s c)
    (Run_ctx.timeout_s m);
  Alcotest.(check bool) "cancel" true
    (Run_ctx.cancel m = None && Run_ctx.cancel c = None);
  Alcotest.(check bool) "chunking" true
    (Run_ctx.chunking m = Run_ctx.chunking c);
  Alcotest.(check (option int)) "batch" (Run_ctx.batch c) (Run_ctx.batch m);
  Alcotest.(check bool) "method" true
    (Run_ctx.mc_method m = Run_ctx.mc_method c);
  Alcotest.(check (option (float 0.))) "rel_error" (Run_ctx.rel_error c)
    (Run_ctx.rel_error m);
  Run_ctx.shutdown m

let test_run_ctx_sequential_map_list () =
  (* Without a pool [map_list] is [List.map]: same results, elements
     visited in order, the first failure raised. *)
  let seen = ref [] in
  let out =
    Run_ctx.map_list Run_ctx.sequential
      (fun x ->
        seen := x :: !seen;
        x * x)
      [ 3; 1; 2 ]
  in
  Alcotest.(check (list int)) "results" [ 9; 1; 4 ] out;
  Alcotest.(check (list int)) "visit order" [ 3; 1; 2 ] (List.rev !seen);
  Alcotest.check_raises "first failure" (Failure "1") (fun () ->
      ignore
        (Run_ctx.map_list Run_ctx.sequential
           (fun x -> if x > 0 then failwith (string_of_int x) else x)
           [ 0; 1; 2 ]))

let suite =
  [
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "histograms" `Quick test_histograms;
    Alcotest.test_case "span nesting and order" `Quick test_span_nesting;
    Alcotest.test_case "spans close on exception" `Quick
      test_span_exception_safe;
    Alcotest.test_case "with_span None is identity" `Quick
      test_span_none_passthrough;
    Alcotest.test_case "non-monotonic clock stays well-formed" `Quick
      test_non_monotonic_clock;
    Alcotest.test_case "spans record across pool domains" `Quick
      test_spans_across_domains;
    Alcotest.test_case "JSON export is valid JSON" `Quick test_json_export;
    Alcotest.test_case "empty sink exports valid JSON" `Quick
      test_json_export_empty;
    Alcotest.test_case "Run_ctx builder and ownership" `Quick
      test_run_ctx_builder;
    Alcotest.test_case "Run_ctx borrows without owning" `Quick
      test_run_ctx_borrowed_pool;
    Alcotest.test_case "Run_ctx validates arguments" `Quick
      test_run_ctx_validation;
    Alcotest.test_case "Run_ctx.sequential shape" `Quick
      test_run_ctx_sequential;
    Alcotest.test_case "Run_ctx.sequential survives derivation" `Quick
      test_run_ctx_sequential_derivation;
    Alcotest.test_case "Run_ctx.make () matches Run_ctx.sequential" `Quick
      test_run_ctx_make_matches_sequential;
    Alcotest.test_case "Run_ctx.sequential map_list is List.map" `Quick
      test_run_ctx_sequential_map_list;
  ]

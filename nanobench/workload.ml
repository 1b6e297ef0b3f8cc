(* The three workloads: seeded request generation, set-up, the timed
   windows, and the response checks.

   Request mix (all MC work is the Fig. 7 plain estimate):
   - hit keys: [evaluate] with [mc_samples] 4000 over the 12 Fig. 7
     designs x 3 seeds, all built during set-up (36 keys, far inside
     the 256-entry cache);
   - miss keys: [yield] with 4000 samples (500 on mixed-open), a fresh
     seed per key, cycling the designs in a seeded order.

   The seed drives the hit seeds, the design order, the miss seeds,
   the hit sequence and the Poisson arrival times; the daemon sees
   only the generated lines. *)

open Loadgen
module Json = Nanodec_serve.Json

type kind = Warm_hit | Cold_mc | Mixed_open

let kinds = [ ("warm-hit", Warm_hit); ("cold-mc", Cold_mc); ("mixed-open", Mixed_open) ]

let mc_samples = 4000
let seeds_per_design = 3
(* Mixed-open rates.  At 1000 hits/s with 10 keys/s of 4000-sample
   misses the daemon sheds, and the hit latency turns bimodal
   even at a few keys/s: a pair computes its key twice unless it
   happens to fuse, and an MC job holds the daemon's runtime lock while
   hits wait.  Smaller keys at a higher rate keep queues forming and
   the batcher busy without shedding, and give the miss tail enough
   samples. *)
let hit_rate = 500.  (* connection A, requests/s *)
let miss_rate = 12.  (* connection B, keys/s, each sent twice *)
let mixed_samples = 500  (* MC samples of a connection-B key *)
let hit_slo_s = 0.001
let miss_slo_s = 0.25
let setups = 3  (* set-ups per timed run; setup_s is their median *)
let companion_hit_s = 8.  (* cold-mc companion hit phase *)
let recent_keys = 24  (* cold-mc companion hits cycle the newest window keys *)
let checked_misses = 8  (* misses re-computed in process per run *)

let designs =
  Array.of_list
    (List.map
       (fun (ct, m) -> (Nanodec_codes.Codebook.name ct, m))
       Nanodec.Figures.fig7_candidates)

let n_hit_keys = Array.length designs * seeds_per_design

(* --- seeded generation --- *)

type gen = {
  seed : int;
  rng : Random.State.t;
  keys : (int, string * int * int * int) Hashtbl.t;
      (* key -> verb, design, MC seed, MC samples *)
  miss_order : int array;
  miss_seed0 : int;
  mutable next_miss : int;
  mutable next_id : int;
}

let make_gen seed =
  let rng = Random.State.make [| 0x6e62; seed |] in
  let keys = Hashtbl.create 1024 in
  (* Hit seeds below 2^29, miss seeds above: the two never collide. *)
  let rec distinct acc =
    if List.length acc = seeds_per_design then Array.of_list acc
    else
      let s = 1 + Random.State.int rng ((1 lsl 29) - 1) in
      distinct (if List.mem s acc then acc else s :: acc)
  in
  let hit_seeds = distinct [] in
  for k = 0 to n_hit_keys - 1 do
    Hashtbl.replace keys k
      ("evaluate", k / seeds_per_design, hit_seeds.(k mod seeds_per_design), mc_samples)
  done;
  let miss_order = Array.init (Array.length designs) Fun.id in
  for i = Array.length miss_order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = miss_order.(i) in
    miss_order.(i) <- miss_order.(j);
    miss_order.(j) <- x
  done;
  let miss_seed0 = (1 lsl 29) + Random.State.int rng (1 lsl 28) in
  { seed; rng; keys; miss_order; miss_seed0; next_miss = 0; next_id = 1 }

let fresh_id g =
  let id = g.next_id in
  g.next_id <- id + 1;
  id

let line_of g ~id key =
  let verb, d, seed, samples = Hashtbl.find g.keys key in
  let code, m = designs.(d) in
  Printf.sprintf
    {|{"id":%d,"verb":"%s","params":{"code":"%s","length":%d},"exec":{"seed":%d,"mc_samples":%d}}|}
    id verb code m seed samples
  ^ "\n"

let samples_of g key =
  let _, _, _, samples = Hashtbl.find g.keys key in
  samples

let req g ~cls key =
  let id = fresh_id g in
  { id; line = line_of g ~id key; cls; key }

let random_hit g = req g ~cls:Hit (Random.State.int g.rng n_hit_keys)

let fresh_miss ?(samples = mc_samples) g =
  let i = g.next_miss in
  g.next_miss <- i + 1;
  let key = n_hit_keys + i in
  Hashtbl.replace g.keys key
    ("yield", g.miss_order.(i mod Array.length g.miss_order), g.miss_seed0 + i, samples);
  req g ~cls:Miss key

let control g verb = Printf.sprintf {|{"id":%d,"verb":"%s"}|} (fresh_id g) verb

(* --- response checks ---

   A response must carry its request's id.  A hit must equal, byte for
   byte, the set-up cold response of its key with "cached":true.  The
   first response to a miss key must be an uncached ok [yield]; a
   repeat of the key must equal it up to the cached flag.  A seeded
   sample of misses is re-computed afterwards by an in-process
   [Protocol.handle_line] on a fresh state ([verify_misses]). *)

type check = {
  expected : (int, string) Hashtbl.t;  (* key -> hit response after the id *)
  firsts : (int, req * string) Hashtbl.t;
      (* miss key -> first request, its response after the id (uncached) *)
  mutable wrong : int;
  mutable errors : int;
  mutable shed : int;
  mutable examples : string list;
}

let make_check () =
  {
    expected = Hashtbl.create 64;
    firsts = Hashtbl.create 1024;
    wrong = 0;
    errors = 0;
    shed = 0;
    examples = [];
  }

let id_prefix id = Printf.sprintf {|{"id":%d|} id

(* [s] holds [sub] at [off]. *)
let holds_at s off sub =
  let n = String.length sub in
  off + n <= String.length s
  &&
  let rec go i = i = n || (s.[off + i] = sub.[i] && go (i + 1)) in
  go 0

let uncached = {|,"cached":false,|}
let cached = {|,"cached":true,|}

(* Rewrite the first occurrence of [a] in [s] to [b]. *)
let replace_first s a b =
  let n = String.length a in
  let rec find i =
    if i + n > String.length s then s
    else if holds_at s i a then
      String.sub s 0 i ^ b ^ String.sub s (i + n) (String.length s - i - n)
    else find (i + 1)
  in
  find 0

let miss_head = {|,"status":"ok","verb":"yield","cached":false,"result":{|}

let wrong chk why response =
  chk.wrong <- chk.wrong + 1;
  if List.length chk.examples < 5 then chk.examples <- (why ^ ": " ^ response) :: chk.examples

(* [true] when the response is correct; failures are counted by kind. *)
let check chk req response =
  let p = id_prefix req.id in
  let lp = String.length p in
  (* Admission control sheds before parsing, so its answer has no id. *)
  if holds_at response 0 {|{"id":null,"status":"error","kind":"overloaded",|} then begin
    chk.shed <- chk.shed + 1;
    false
  end
  else if not (holds_at response 0 p && String.length response > lp && response.[lp] = ',')
  then (wrong chk "id" response; false)
  else if holds_at response lp {|,"status":"error"|} then begin
    if holds_at response (lp + 17) {|,"kind":"overloaded"|} then chk.shed <- chk.shed + 1
    else chk.errors <- chk.errors + 1;
    false
  end
  else
    match (req.cls, Hashtbl.find_opt chk.expected req.key) with
    | Hit, Some e ->
      let ok = String.length response = lp + String.length e && holds_at response lp e in
      if not ok then wrong chk "hit bytes" response;
      ok
    | Hit, None -> wrong chk "hit on an unbuilt key" response; false
    | Miss, _ -> (
      let body = String.sub response lp (String.length response - lp) in
      match Hashtbl.find_opt chk.firsts req.key with
      | None ->
        (* Normally the key's first send; a repeat whose first send was
           shed may legitimately find the key cached. *)
        let body = replace_first body cached uncached in
        if holds_at body 0 miss_head then begin
          Hashtbl.replace chk.firsts req.key (req, body);
          Hashtbl.replace chk.expected req.key (replace_first body uncached cached);
          true
        end
        else (wrong chk "miss head" response; false)
      | Some (_, first_body) ->
        let ok = replace_first body cached uncached = first_body in
        if not ok then wrong chk "repeat of a miss" response;
        ok)

(* Re-compute up to [checked_misses] seeded misses in process, on a
   fresh state, and compare whole response lines. *)
let verify_misses g chk =
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) chk.firsts []) in
  let keys = Array.of_list keys in
  let rng = Random.State.make [| 0x6e63; g.seed |] in
  let picks =
    List.sort_uniq compare
      (List.init (min checked_misses (Array.length keys)) (fun _ ->
           keys.(Random.State.int rng (Array.length keys))))
  in
  if picks <> [] then
    Nanodec_parallel.Run_ctx.with_ctx ~domains:2 @@ fun ctx ->
    let state = Nanodec_serve.Protocol.make_state ~base:ctx () in
    List.iter
      (fun k ->
        let req, body = Hashtbl.find chk.firsts k in
        let line = String.sub req.line 0 (String.length req.line - 1) in
        let response = id_prefix req.id ^ body in
        if Nanodec_serve.Protocol.handle_line state line <> response then
          wrong chk "in-process recomputation" response)
      picks

(* --- tallies --- *)

type tally = {
  hit : Samples.t;  (* latency, seconds, of correct responses *)
  miss : Samples.t;
  late : Samples.t;  (* open loop: sent - due per arrival *)
  ok_at : Samples.t;  (* receive time of each correct response *)
  mutable attempted : int;
  mutable correct : int;
  mutable slo_ok : int;
  mutable mc_sampled : int;  (* MC samples in correct miss-class responses *)
  mutable rtt_sum : float;  (* send -> receive, every response *)
  mutable t1 : float;  (* last receive *)
  mutable span_s : float;  (* summed length of the phases *)
  mutable capture : int;  (* hits still to keep for the probe *)
  mutable captured : (string * string) list;  (* request line, response *)
}

let make_tally () =
  {
    hit = Samples.create ();
    miss = Samples.create ();
    late = Samples.create ();
    ok_at = Samples.create ();
    attempted = 0;
    correct = 0;
    slo_ok = 0;
    mc_sampled = 0;
    rtt_sum = 0.;
    t1 = now ();
    span_s = 0.;
    capture = 0;
    captured = [];
  }

let record g chk tally req ~due ~sent ~recv response =
  let latency = recv -. due in
  tally.attempted <- tally.attempted + 1;
  tally.rtt_sum <- tally.rtt_sum +. (recv -. sent);
  tally.t1 <- recv;
  if check chk req response then begin
    tally.correct <- tally.correct + 1;
    Samples.add tally.ok_at recv;
    match req.cls with
    | Hit ->
      if tally.capture > 0 then begin
        tally.capture <- tally.capture - 1;
        tally.captured <- (req.line, response) :: tally.captured
      end;
      Samples.add tally.hit latency;
      if latency <= hit_slo_s then tally.slo_ok <- tally.slo_ok + 1
    | Miss ->
      Samples.add tally.miss latency;
      tally.mc_sampled <- tally.mc_sampled + samples_of g req.key;
      if latency <= miss_slo_s then tally.slo_ok <- tally.slo_ok + 1
  end

let elapsed t = Float.max 1e-9 t.span_s

(* --- set-up --- *)

type session = { daemon : Daemon.t; conn : Conn.t }

(* Spawn -> first answered ping -> every hit key built cold (its
   response becomes the key's expected hit bytes; a later set-up must
   reproduce them) -> two warm passes over the keys.  Returns the
   session, the set-up time and the summed round trips of its
   requests. *)
let setup g chk ~workdir ~telemetry =
  let t0 = now () in
  let daemon = Daemon.spawn ~workdir ~telemetry in
  let conn = Daemon.connect daemon in
  let rtt = ref 0. in
  let round_trip line =
    let t = now () in
    Conn.send conn line;
    let response = Conn.read_line conn in
    rtt := !rtt +. (now () -. t);
    response
  in
  let pong = round_trip (control g "ping" ^ "\n") in
  if not (holds_at pong 0 {|{"id":|}) then failwith ("bad ping response: " ^ pong);
  for k = 0 to n_hit_keys - 1 do
    let r = req g ~cls:Hit k in
    let response = round_trip r.line in
    let lp = String.length (id_prefix r.id) in
    let body = String.sub response lp (String.length response - lp) in
    if not (holds_at response 0 (id_prefix r.id) && holds_at body 0 {|,"status":"ok","verb":"evaluate","cached":false,|})
    then wrong chk "set-up cold build" response
    else begin
      let e = replace_first body uncached cached in
      match Hashtbl.find_opt chk.expected k with
      | Some prev when prev <> e -> wrong chk "set-up differs between daemons" response
      | _ -> Hashtbl.replace chk.expected k e
    end
  done;
  for _ = 1 to 2 do
    for k = 0 to n_hit_keys - 1 do
      let r = req g ~cls:Hit k in
      ignore (check chk r (round_trip r.line))
    done
  done;
  ({ daemon; conn }, now () -. t0, !rtt)

(* --- the daemon's stats verb --- *)

type stats = {
  shed : int;
  batches : int;
  fused : int;
  size_max : int;
  hits : int;
  misses : int;
  evictions : int;
  build_s : float;
}

let stats g conn =
  let response = Conn.request conn (control g "stats") in
  let json =
    match Json.parse response with Ok j -> j | Error e -> failwith ("stats: " ^ e)
  in
  let rec path j = function
    | [] -> Some j
    | f :: rest -> Option.bind (Json.member f j) (fun j -> path j rest)
  in
  let int p = Option.value (Option.bind (path json p) Json.to_int_opt) ~default:0 in
  let float p = Option.value (Option.bind (path json p) Json.to_float_opt) ~default:0. in
  {
    shed = int [ "result"; "serve"; "shed" ];
    batches = int [ "result"; "serve"; "batch"; "batches" ];
    fused = int [ "result"; "serve"; "batch"; "fused_requests" ];
    size_max = int [ "result"; "serve"; "batch"; "size_max" ];
    hits = int [ "result"; "cache"; "hits" ];
    misses = int [ "result"; "cache"; "misses" ];
    evictions = int [ "result"; "cache"; "evictions" ];
    build_s = float [ "result"; "cache"; "build_s" ];
  }

(* --- timed phases --- *)

let closed g chk tally conn ~next ~min_count ~seconds =
  let t0 = now () in
  let t_end = t0 +. seconds in
  closed_loop conn ~next
    ~continue:(fun i -> i < min_count || now () < t_end)
    ~on_response:(record g chk tally);
  tally.span_s <- tally.span_s +. (tally.t1 -. t0)

let hit_count = Samples.needed ~p:0.99
let miss_count = Samples.needed ~p:0.95

(* Part [part] of [parts] of the workload's own timed window, each on
   its own daemon, pooled in [tally]: [seconds] long, stretched — unless
   [~exact] — until the pooled tail percentiles are reportable. *)
let window ?(exact = false) ?(part = 0) ?(parts = 1) kind g chk tally session ~seconds =
  let at_least n = if exact then 0 else (n + parts - 1) / parts in
  match kind with
  | Warm_hit ->
    closed g chk tally session.conn ~next:(fun _ -> random_hit g)
      ~min_count:(at_least hit_count) ~seconds
  | Cold_mc ->
    closed g chk tally session.conn ~next:(fun _ -> fresh_miss g)
      ~min_count:(at_least miss_count) ~seconds
  | Mixed_open ->
    let keys = Float.to_int (Float.round (miss_rate *. seconds)) in
    let keys = max keys (at_least ((miss_count + 1) / 2)) in
    let seconds = float_of_int keys /. miss_rate in
    let ra = Random.State.make [| 0x6e64; g.seed; part |] in
    let rb = Random.State.make [| 0x6e65; g.seed; part |] in
    let ta =
      poisson_times ra ~count:(Float.to_int (Float.round (hit_rate *. seconds))) ~seconds
    in
    let tb = poisson_times rb ~count:keys ~seconds in
    let conn_b = Daemon.connect session.daemon in
    let a = List.map (fun t -> (t, [ random_hit g ])) ta in
    let b =
      List.map
        (fun t ->
          let first = fresh_miss ~samples:mixed_samples g in
          (t, [ first; req g ~cls:Miss first.key ]))
        tb
    in
    let start = now () +. 0.02 in
    let arrivals l =
      Array.of_list (List.map (fun (t, reqs) -> { due = start +. t; reqs }) l)
    in
    open_loop
      [| lane session.conn (arrivals a); lane conn_b (arrivals b) |]
      ~late:tally.late ~on_response:(record g chk tally);
    tally.span_s <- tally.span_s +. (tally.t1 -. start);
    Conn.close conn_b

(* The other request class, timed on its own after the window, so every
   workload reports every metric: fresh misses after warm-hit, hits on
   the newest window keys after cold-mc.  Mixed-open carries both. *)
let companion ~parts kind g chk tally session =
  let share n = (n + parts - 1) / parts in
  match kind with
  | Warm_hit ->
    closed g chk tally session.conn ~next:(fun _ -> fresh_miss g)
      ~min_count:(share (miss_count + 10)) ~seconds:0.
  | Cold_mc ->
    let newest = Array.init recent_keys (fun i -> n_hit_keys + g.next_miss - 1 - i) in
    closed g chk tally session.conn
      ~next:(fun _ -> req g ~cls:Hit newest.(Random.State.int g.rng recent_keys))
      ~min_count:(share (hit_count + 10))
      ~seconds:(companion_hit_s /. float_of_int parts)
  | Mixed_open -> ()

(* The in-process per-layer probe of a traced run.

   It replays the workload's own request lines and Monte-Carlo keys
   through the layers' public functions, recording a span around each
   call (see [Trace]); nothing inside the library is instrumented.

   A replayed request follows the daemon's path: [Protocol]
   classification and the [Artifacts] membership test (the select
   thread's part), then — for a miss — the estimate itself through
   [Montecarlo.run] on the compiled [Kernel] target (one domain, each
   [Kernel.draw] timed into an aggregate child span, Rng included),
   installed with [Artifacts.estimate_with]; finally
   [Protocol.handle_line], which then finds every artifact warm and
   does the protocol work alone.  Its response must equal the daemon's
   with "cached":true, which cross-checks the probe's estimate.

   Micro-probes time the remaining public calls one at a time. *)

module Protocol = Nanodec_serve.Protocol
module Json = Nanodec_serve.Json
module Artifacts = Nanodec_serve.Artifacts
module Artifact_cache = Nanodec_serve.Artifact_cache
module Montecarlo = Nanodec_numerics.Montecarlo
module Kernel = Nanodec_crossbar.Kernel
module Cave = Nanodec_crossbar.Cave
module Rng = Nanodec_rng.Rng
module Run_ctx = Nanodec_parallel.Run_ctx

let now = Clock.now
let hit_replays = 2000

(* Self time per span name over one group of spans. *)
type table = {
  title : string;
  rows : (string * float * int) list;  (* span, self seconds, count *)
  request_s : float;  (* total duration of the group's requests; 0 for micro-probes *)
}

type result = {
  metrics : (string * float) list;
  tables : table list;
  mismatches : string list;
}

let strip line = String.sub line 0 (String.length line - 1)

(* Seconds per call of [f]: the median over 20 batches of 100 calls. *)
let per_call f =
  Samples.median
    (Array.init 20 (fun _ ->
         let t = now () in
         for _ = 1 to 100 do
           ignore (Sys.opaque_identity (f ()))
         done;
         (now () -. t) /. 100.))

let plan_of state line =
  match Protocol.classify_fusable state line with
  | Some p -> p
  | None -> failwith ("probe: request is not an MC request: " ^ line)

(* [hits]: (line, daemon response) of the workload's hit class;
   [misses]: (line, daemon response) of its miss class, first sends
   only.  Lines carry their trailing newline. *)
let run tr ~hits ~misses =
  let mismatches = ref [] in
  let expect what got want =
    if got <> want then mismatches := (what ^ ": " ^ got) :: !mismatches
  in
  let ctx1 = Run_ctx.make ~domains:1 () in
  let ctx2 = Run_ctx.make ~domains:2 () in
  Fun.protect ~finally:(fun () -> Run_ctx.shutdown ctx1; Run_ctx.shutdown ctx2)
  @@ fun () ->
  let state = Protocol.make_state ~base:ctx2 () in
  let arts = Protocol.artifacts state in
  let as_hit response = Workload.replace_first response Workload.uncached Workload.cached in
  let request rid line =
    Trace.with_span tr ~rid "request" @@ fun () ->
    let plan = Trace.with_span tr "protocol.classify" (fun () -> plan_of state line) in
    let warm =
      Trace.with_span tr "artifacts.lookup" (fun () ->
          Artifact_cache.mem arts plan.Protocol.fuse_key)
    in
    if not warm then begin
      let kernel, _ =
        Trace.with_span tr "artifacts.lookup" (fun () -> Artifacts.kernel arts plan.fuse_config)
      in
      let draw_s = ref 0. in
      let timed rng =
        let t = now () in
        let v = Kernel.draw kernel rng in
        draw_s := !draw_s +. (now () -. t);
        v
      in
      let e =
        Trace.with_span tr "montecarlo.run" (fun () ->
            let e =
              Montecarlo.run ~ctx:ctx1 plan.fuse_spec (Rng.create ~seed:plan.fuse_seed)
                (Montecarlo.target timed)
            in
            Trace.aggregate tr "kernel.draw" ~dur:!draw_s ~count:plan.fuse_samples;
            e)
      in
      Trace.with_span tr "artifacts.install" (fun () ->
          ignore (Artifacts.estimate_with arts ~key:plan.fuse_key ~build:(fun () -> e)))
    end;
    Trace.with_span tr "protocol.handle_line" (fun () -> Protocol.handle_line state line)
  in
  (* Misses first: afterwards their keys are warm, which also serves
     workloads whose hits are repeats of their misses. *)
  let rid = ref 0 in
  let miss_lines = List.map (fun (l, r) -> (strip l, r)) misses in
  List.iter
    (fun (line, response) ->
      incr rid;
      expect "miss replay" (request !rid line) (as_hit response))
    miss_lines;
  let hit_lines = Array.of_list (List.map (fun (l, r) -> (strip l, r)) hits) in
  (* Build any hit key the misses did not, outside the spans. *)
  Array.iter (fun (line, _) -> ignore (Protocol.handle_line state line)) hit_lines;
  let first_hit_rid = !rid + 1 in
  for i = 0 to hit_replays - 1 do
    let line, response = hit_lines.(i mod Array.length hit_lines) in
    incr rid;
    let got = request !rid line in
    if i < Array.length hit_lines then expect "hit replay" got response
  done;
  let hit_median name = Samples.median (Trace.durations tr name ~min_rid:first_hit_rid) in
  let hit_responses = Array.map snd hit_lines in
  let parsed = Array.map (fun r -> Result.get_ok (Json.parse r)) hit_responses in
  let micro name f = Trace.with_span tr ~rid:(-1) name f in
  let k = ref 0 in
  let parse_s =
    micro "protocol.parse" (fun () ->
        per_call (fun () ->
            incr k;
            Json.parse (fst hit_lines.(!k mod Array.length hit_lines))))
  in
  let render_s =
    micro "protocol.render" (fun () ->
        per_call (fun () ->
            incr k;
            Json.to_string parsed.(!k mod Array.length parsed)))
  in
  let ping_s =
    micro "protocol.ping" (fun () ->
        per_call (fun () -> Protocol.handle_line state {|{"id":1,"verb":"ping"}|}))
  in
  let response_bytes =
    Array.fold_left (fun a r -> a +. float_of_int (String.length r + 1)) 0. hit_responses
    /. float_of_int (Array.length hit_responses)
  in
  (* Monte-Carlo layers on the workload's own MC keys. *)
  let plans = List.map (fun (line, _) -> plan_of state line) miss_lines in
  let configs = List.map (fun p -> p.Protocol.fuse_config) plans in
  let timed name f =
    let t = now () in
    let v = micro name f in
    (v, now () -. t)
  in
  let analyses, analyze_times =
    List.split (List.map (fun c -> timed "cave.analyze" (fun () -> Cave.analyze c)) configs)
  in
  let compile_times =
    List.map (fun a -> snd (timed "kernel.compile" (fun () -> Cave.kernel_of_analysis a))) analyses
  in
  let kernels = List.map (fun p -> fst (Artifacts.kernel arts p.Protocol.fuse_config)) plans in
  let run_times ctx name =
    Array.of_list
      (List.map2
         (fun p kernel ->
           snd
             (timed name (fun () ->
                  Montecarlo.run ~ctx p.Protocol.fuse_spec (Rng.create ~seed:p.fuse_seed)
                    (Kernel.target kernel))))
         plans kernels)
  in
  let run_d1 = Samples.median (run_times ctx1 "montecarlo.run_d1") in
  let run_d2 = Samples.median (run_times ctx2 "montecarlo.run_d2") in
  let rec pairs = function
    | (p, k) :: (q, l) :: rest -> [ (p, k); (q, l) ] :: pairs rest
    | _ -> []
  in
  let many =
    Array.of_list
      (List.map
         (fun items ->
           let items =
             Array.of_list
               (List.map
                  (fun (p, kernel) ->
                    (p.Protocol.fuse_spec, Rng.create ~seed:p.Protocol.fuse_seed, Kernel.target kernel))
                  items)
           in
           snd (timed "montecarlo.run_many" (fun () -> Montecarlo.run_many ~ctx:ctx2 items)))
         (pairs (List.combine plans kernels)))
  in
  let draws = 500 in
  let draw_s, samples =
    micro "kernel.draw" (fun () ->
        List.fold_left2
          (fun (s, n) p kernel ->
            let rng = Rng.create ~seed:p.Protocol.fuse_seed in
            let t = now () in
            for _ = 1 to draws do
              ignore (Sys.opaque_identity (Kernel.draw kernel rng))
            done;
            (s +. (now () -. t), n + draws))
          (0., 0) plans kernels)
  in
  let draws_per_sample =
    List.fold_left (fun a k -> a +. float_of_int (Kernel.draws_per_sample k)) 0. kernels
    /. float_of_int (List.length kernels)
  in
  let ns_per_sample = draw_s *. 1e9 /. float_of_int samples in
  let gaussians = 400_000 in
  let ns_per_gaussian =
    micro "rng.gaussian" (fun () ->
        let fast = Rng.Fast.create () in
        Rng.Fast.load fast (Rng.create ~seed:2009);
        Samples.median
          (Array.init 5 (fun _ ->
               let t = now () in
               for _ = 1 to gaussians do
                 ignore (Sys.opaque_identity (Rng.Fast.gaussian_std fast))
               done;
               (now () -. t) *. 1e9 /. float_of_int gaussians)))
  in
  let table title rid =
    let totals = Trace.self_times ~rid tr in
    {
      title;
      rows =
        List.sort compare
          (Hashtbl.fold
             (fun name (self, count, _) acc ->
               if name = "request" then acc else (name, self, count) :: acc)
             totals []);
      request_s =
        (match Hashtbl.find_opt totals "request" with Some (_, _, d) -> d | None -> 0.);
    }
  in
  let tables =
    [
      table "miss requests" (fun r -> r >= 1 && r < first_hit_rid);
      table "hit requests" (fun r -> r >= first_hit_rid);
      table "micro-probes" (fun r -> r < 0);
    ]
  in
  {
    metrics =
      [
        ("protocol.handle_hit_us", hit_median "protocol.handle_line" *. 1e6);
        ("protocol.parse_us", parse_s *. 1e6);
        ("protocol.render_us", render_s *. 1e6);
        ("protocol.classify_us", hit_median "protocol.classify" *. 1e6);
        ("protocol.response_bytes", response_bytes);
        ("protocol.ping_us", ping_s *. 1e6);
        ("montecarlo.run_ms_d1", run_d1 *. 1e3);
        ("montecarlo.run_ms_d2", run_d2 *. 1e3);
        ("montecarlo.run_many_ms", Samples.median many *. 1e3);
        ("kernel.ns_per_sample", ns_per_sample);
        ("kernel.draws_per_sample", draws_per_sample);
        ("kernel.ns_per_draw", ns_per_sample /. draws_per_sample);
        ("kernel.compile_ms", Samples.median (Array.of_list compile_times) *. 1e3);
        ("cave.analyze_ms", Samples.median (Array.of_list analyze_times) *. 1e3);
        ("rng.ns_per_gaussian", ns_per_gaussian);
        ("pool.parallel_efficiency", run_d1 /. (2. *. run_d2));
      ];
    tables;
    mismatches = !mismatches;
  }

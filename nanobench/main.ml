(* The nanodec benchmark: command line and report.

     nanobench/run.sh --workload warm-hit|cold-mc|mixed-open|all --seed N
                      --seconds S --trace 0|1

   --trace 0: the timed run.  Three daemons in turn, each set up
   (setup_s is the median set-up) and then given a third of the
   workload's window (stretched if the pooled tail percentiles need
   more samples) and of the companion phase of the other request
   class; then the checks.  Prints every end-to-end metric.

   --trace 1: the traced run.  The same workload at S/2 against an
   untraced and a [--telemetry] daemon (their difference is the tracing
   overhead), [stats] deltas around the traced window, and the
   in-process probe; prints the per-layer table and every per-layer
   metric.

   [all] runs the three workloads in turn, each with its own result
   line.  Exits 1, after the result line, when any response was
   wrong. *)

open Nanobench
module Json = Nanodec_serve.Json

let workdir = ".nanobench"

let usage () =
  prerr_endline
    "usage: main.exe --workload warm-hit|cold-mc|mixed-open|all --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun _ -> usage ()) "" with Arg.Bad _ | Arg.Help _ -> usage ());
  let workloads =
    if !workload = "all" then Workload.kinds
    else List.filter (fun (name, _) -> name = !workload) Workload.kinds
  in
  if workloads = [] || !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  (workloads, !seed, !seconds, !trace = 1)

let section title = Printf.printf "\n== %s ==\n" title

let failures (chk : Workload.check) = chk.errors + chk.shed + chk.wrong

let report_checks (chk : Workload.check) =
  Printf.printf "  checks: %d wrong, %d error responses, %d shed\n" chk.wrong chk.errors chk.shed;
  List.iter (fun e -> Printf.printf "  WRONG %s\n" e) (List.rev chk.examples)

(* --- timed run --- *)

let timed kind name g ~seconds =
  let chk = Workload.make_check () in
  let parts = Workload.setups in
  (* Each set-up's daemon runs its share of the window and of the
     companion phase; pooling the shares averages over daemon
     instances. *)
  let runs =
    List.init parts (fun part ->
        let session, dt, _ = Workload.setup g chk ~workdir ~telemetry:false in
        let w = Workload.make_tally () and c = Workload.make_tally () in
        Workload.window ~part ~parts kind g chk w session ~seconds:(seconds /. float_of_int parts);
        Workload.companion ~parts kind g chk c session;
        let rss = Daemon.rss_mb session.daemon in
        Daemon.shutdown session.daemon session.conn;
        (dt, rss, w, c))
  in
  let setup_times = List.map (fun (dt, _, _, _) -> dt) runs in
  let median xs = Samples.median (Array.of_list xs) in
  let w = List.map (fun (_, _, w, _) -> w) runs and c = List.map (fun (_, _, _, c) -> c) runs in
  Workload.verify_misses g chk;
  let ms =
    Report.end_to_end chk ~setup_s:(median setup_times)
      ~rss_mb:(median (List.map (fun (_, rss, _, _) -> rss) runs))
      w c
  in
  section (Printf.sprintf "%s, seed %d: end-to-end (tracing off)" name g.Workload.seed);
  Printf.printf "  set-ups: %s s\n"
    (String.concat ", " (List.map (Printf.sprintf "%.3f") setup_times));
  List.iter Report.pp_metric ms;
  report_checks chk;
  let bad = Report.unreportable ms in
  List.iter (Printf.printf "  UNREPORTABLE %s: fewer than 10 samples beyond it\n") bad;
  let correct = chk.wrong = 0 && chk.errors = 0 && bad = [] in
  let registered = List.filter (fun m -> m.Report.name <> "error_rate") ms in
  let attempted = List.fold_left (fun a (t : Workload.tally) -> a + t.attempted) 0 (w @ c) in
  Report.result_line ~correct ~attempted ~failed:(failures chk) registered;
  correct

(* --- traced run --- *)

(* Counters and histogram sums of a [--telemetry] export. *)
let telemetry_totals path =
  let ic = open_in_bin path in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let json =
    match Json.parse text with Ok j -> j | Error e -> failwith ("telemetry: " ^ e)
  in
  let fields name = match Json.member name json with Some (Json.Obj kv) -> kv | _ -> [] in
  let number v = Option.value (Json.to_float_opt v) ~default:0. in
  List.map (fun (k, v) -> (k, number v)) (fields "counters")
  @ List.map
      (fun (k, v) -> (k ^ ".sum_s", Option.fold ~none:0. ~some:number (Json.member "sum_s" v)))
      (fields "histograms")

let traced kind name g ~seconds =
  let chk = Workload.make_check () in
  let half = seconds /. 2. in
  (* 1. untraced: the window, then a ping phase *)
  let s, setup_u, _ = Workload.setup g chk ~workdir ~telemetry:false in
  let u = Workload.make_tally () in
  Workload.window ~exact:true kind g chk u s ~seconds:half;
  if kind = Workload.Warm_hit then begin
    (* MC keys for the probe; warm-hit's own window has none. *)
    let spare = Workload.make_tally () in
    Workload.closed g chk spare s.conn ~next:(fun _ -> Workload.fresh_miss g)
      ~min_count:(Array.length Workload.designs) ~seconds:0.
  end;
  let ping = Samples.create () in
  for _ = 1 to 2000 do
    let t = Clock.now () in
    ignore (Conn.request s.conn (Workload.control g "ping"));
    Samples.add ping (Clock.now () -. t)
  done;
  let rss_u = Daemon.rss_mb s.daemon in
  Daemon.shutdown s.daemon s.conn;
  (* 2. traced: set-up, then the window between two stats snapshots.
     The telemetry export covers the daemon's whole life, set-up
     included: its totals cannot be split, and a set-up-only daemon is
     no baseline (the pool's chunk plan is tuned from measured time). *)
  let s, setup_t, setup_rtt = Workload.setup g chk ~workdir ~telemetry:true in
  let st0 = Workload.stats g s.conn in
  let t = Workload.make_tally () in
  t.capture <- 200;
  Workload.window ~exact:true kind g chk t s ~seconds:half;
  let st1 = Workload.stats g s.conn in
  let rss_t = Daemon.rss_mb s.daemon in
  Daemon.shutdown s.daemon s.conn;
  let export = Option.get s.daemon.telemetry in
  let tel = telemetry_totals export in
  Sys.remove export;
  let total k = Option.value (List.assoc_opt k tel) ~default:0. in
  (* 3. the in-process probe *)
  let firsts =
    List.sort compare
      (Hashtbl.fold
         (fun k (r, body) acc -> (k, (r.Loadgen.line, Workload.id_prefix r.id ^ body)) :: acc)
         chk.firsts [])
  in
  let misses = List.filteri (fun i _ -> i < Array.length Workload.designs) (List.map snd firsts) in
  let hits =
    match List.rev t.captured with
    | [] -> List.map (fun (l, r) -> (l, Workload.replace_first r Workload.uncached Workload.cached)) misses
    | hs -> hs
  in
  let tr = Trace.create () in
  let p = Probe.run tr ~hits ~misses in
  Trace.write tr (Filename.concat workdir (Printf.sprintf "spans-%s-%d.jsonl" name g.seed));
  Workload.verify_misses g chk;
  List.iter (Workload.wrong chk "probe") p.mismatches;
  (* per-layer metrics *)
  let pm = p.metrics in
  let probe k = List.assoc k pm in
  let ping_rtt = Samples.median (Samples.to_array ping) in
  let fusable = Samples.length t.miss in
  let dhits = st1.hits - st0.hits and dmisses = st1.misses - st0.misses in
  let m = Report.metric in
  let layer_metrics =
    [
      m "server.ping_rtt_us" "us" (ping_rtt *. 1e6);
      m "server.transport_us" "us" (ping_rtt *. 1e6 -. probe "protocol.ping_us");
      m "server.shed" "count" (float_of_int (st1.shed - st0.shed));
      m "server.queue_wait_s" "s"
        (Float.max 0. (setup_rtt +. t.rtt_sum -. total "serve.request_s.sum_s"));
      m "batcher.batches" "count" (float_of_int (st1.batches - st0.batches));
      m "batcher.fused_ratio" "ratio"
        (float_of_int (st1.fused - st0.fused) /. float_of_int (max 1 fusable));
      m "batcher.size_max" "count" (float_of_int st1.size_max);
      m "protocol.handle_hit_us" "us" (probe "protocol.handle_hit_us");
      m "protocol.parse_us" "us" (probe "protocol.parse_us");
      m "protocol.render_us" "us" (probe "protocol.render_us");
      m "protocol.classify_us" "us" (probe "protocol.classify_us");
      m "protocol.response_bytes" "bytes" (probe "protocol.response_bytes");
      m "artifacts.hit_ratio" "ratio" (float_of_int dhits /. float_of_int (max 1 (dhits + dmisses)));
      m "artifacts.evictions" "count" (float_of_int (st1.evictions - st0.evictions));
      m "artifacts.build_s_per_miss" "s"
        (if dmisses = 0 then 0. else (st1.build_s -. st0.build_s) /. float_of_int dmisses);
      m "montecarlo.run_ms_d1" "ms" (probe "montecarlo.run_ms_d1");
      m "montecarlo.run_ms_d2" "ms" (probe "montecarlo.run_ms_d2");
      m "montecarlo.run_many_ms" "ms" (probe "montecarlo.run_many_ms");
      m "kernel.ns_per_sample" "ns" (probe "kernel.ns_per_sample");
      m "kernel.draws_per_sample" "count" (probe "kernel.draws_per_sample");
      m "kernel.ns_per_draw" "ns" (probe "kernel.ns_per_draw");
      m "kernel.compile_ms" "ms" (probe "kernel.compile_ms");
      m "cave.analyze_ms" "ms" (probe "cave.analyze_ms");
      m "rng.ns_per_gaussian" "ns" (probe "rng.ns_per_gaussian");
      m "pool.compute_s" "s" (total "pool.chunk.compute_s.sum_s");
      m "pool.queue_wait_s" "s" (total "pool.chunk.queue_wait_s.sum_s");
      m "pool.chunks" "count" (total "pool.chunks.submitter" +. total "pool.chunks.worker");
      m "pool.batches" "count" (total "pool.batches");
      m "pool.parallel_efficiency" "ratio" (probe "pool.parallel_efficiency");
      m "loadgen.late_p99_ms" "ms"
        (if Samples.length t.late = 0 then 0.
         else (Report.pct ~p:0.99 t.late).Samples.value *. 1e3);
    ]
  in
  section (Printf.sprintf "%s, seed %d: per-layer (traced run)" name g.Workload.seed);
  List.iter Report.pp_metric layer_metrics;
  Printf.printf "  %-26s %14.6g %-6s\n" "(protocol.ping_us)" (probe "protocol.ping_us") "us";
  List.iter
    (fun (tb : Probe.table) ->
      section
        (if tb.request_s > 0. then
           Printf.sprintf "%s: probe self time by layer, %s (%.3f s)" name tb.title tb.request_s
         else Printf.sprintf "%s: probe self time, %s" name tb.title);
      Printf.printf "  %-22s %12s %10s %10s\n" "span" "self s" "count" "% request";
      List.iter
        (fun (span, self, count) ->
          Printf.printf "  %-22s %12.6f %10d %10s\n" span self count
            (if tb.request_s > 0. then Printf.sprintf "%.3f" (100. *. self /. tb.request_s)
             else "-"))
        tb.rows)
    p.tables;
  section (Printf.sprintf "%s: tracing overhead (traced - untraced, window of %.1f s)" name half);
  let e2e setup rss tally = Report.end_to_end chk ~setup_s:setup ~rss_mb:rss [ tally ] [] in
  List.iter2
    (fun (a : Report.metric) (b : Report.metric) ->
      if Float.is_finite a.value && Float.is_finite b.value then
        Printf.printf "  %-26s %14.6g %-6s (untraced %.6g, traced %.6g)\n" a.name
          (b.value -. a.value) a.unit a.value b.value
      else Printf.printf "  %-26s %14s\n" a.name "n/a (class not in this workload)")
    (e2e setup_u rss_u u) (e2e setup_t rss_t t);
  report_checks chk;
  let correct = chk.wrong = 0 && chk.errors = 0 in
  Report.result_line ~correct ~attempted:(u.attempted + t.attempted) ~failed:(failures chk)
    layer_metrics;
  correct

let () =
  let workloads, seed, seconds, trace = parse_args () in
  if not (Sys.file_exists Daemon.exe) then begin
    prerr_endline ("nanobench: " ^ Daemon.exe ^ " is not built; run nanobench/run.sh");
    exit 1
  end;
  (try Sys.mkdir workdir 0o755 with Sys_error _ -> ());
  Daemon.raise_generator_priority ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  at_exit Daemon.cleanup;
  let run (name, kind) =
    let g = Workload.make_gen seed in
    if trace then traced kind name g ~seconds else timed kind name g ~seconds
  in
  let ok =
    try List.for_all Fun.id (List.map run workloads)
    with e ->
      Printf.eprintf "nanobench: %s\n" (Printexc.to_string e);
      Daemon.cleanup ();
      exit 1
  in
  exit (if ok then 0 else 1)

(* Metrics: computation from the tallies, the printed report and the
   result line. *)

type metric = {
  name : string;
  unit : string;
  value : float;
  samples : Samples.pct option;  (* for percentiles: count and tail *)
}

let metric ?samples name unit value = { name; unit; value; samples }

(* --- end-to-end --- *)

let pct ~p xs = Samples.percentile ~p (Samples.to_array xs)

(* Block sizes: the fewest samples whose tail percentile is reportable
   on its own, with room to spare for the hits. *)
let hit_block = 2000
let miss_block = Samples.needed ~p:0.95

let latency name unit scale ~p ~size xs =
  let s = Samples.blocked ~p ~size xs in
  metric ~samples:s name unit (s.Samples.value *. scale)

(* Responses per second over each block of [hit_block] correct
   responses of one daemon's window. *)
let rates (t : Workload.tally) =
  List.map
    (fun b ->
      let n = Array.length b in
      float_of_int (n - 1) /. (b.(n - 1) -. b.(0)))
    (List.filter
       (fun b -> Array.length b >= 2)
       (Samples.blocks ~size:hit_block (Samples.to_array t.ok_at)))

(* [w] and [c]: the window's and the companion phase's tallies, one per
   daemon.  A class's samples come from the window when it carries the
   class, else from the companion phase. *)
let end_to_end (chk : Workload.check) ~setup_s ~rss_mb (w : Workload.tally list)
    (c : Workload.tally list) =
  let pooled f ts = Array.concat (List.map (fun t -> Samples.to_array (f t)) ts) in
  let cls f =
    let a = pooled f w in
    if Array.length a > 0 then a else pooled f c
  in
  let hits = cls (fun t -> t.Workload.hit) and misses = cls (fun t -> t.Workload.miss) in
  let phases = w @ c in
  let sum f = List.fold_left (fun a t -> a + f t) 0 phases in
  let attempted = sum (fun t -> t.Workload.attempted) in
  let failed = chk.Workload.errors + chk.shed + chk.wrong in
  let mc = if List.exists (fun t -> t.Workload.mc_sampled > 0) w then w else c in
  let median xs = Samples.median (Array.of_list xs) in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  [
    metric "setup_s" "s" setup_s;
    latency "hit_p50_us" "us" 1e6 ~p:0.5 ~size:hit_block hits;
    latency "hit_p99_us" "us" 1e6 ~p:0.99 ~size:hit_block hits;
    latency "miss_p50_ms" "ms" 1e3 ~p:0.5 ~size:miss_block misses;
    latency "miss_p95_ms" "ms" 1e3 ~p:0.95 ~size:miss_block misses;
    metric "throughput_rps" "req/s" (median (List.concat_map rates w));
    metric "mc_samples_per_s" "1/s"
      (median
         (List.map (fun t -> float_of_int t.Workload.mc_sampled /. Workload.elapsed t) mc));
    metric "slo_ok_ratio" "ratio" (ratio (sum (fun t -> t.Workload.slo_ok)) attempted);
    metric "error_rate" "ratio" (ratio failed attempted);
    metric "rss_mb" "MiB" rss_mb;
  ]

(* --- printing --- *)

let pp_metric m =
  let tail =
    match m.samples with
    | Some s when s.Samples.blocks > 1 ->
      Printf.sprintf "  (n=%d in %d blocks, >=%d beyond in each)" s.n s.blocks s.beyond
    | Some s -> Printf.sprintf "  (n=%d, %d beyond)" s.Samples.n s.beyond
    | None -> ""
  in
  Printf.printf "  %-26s %14.6g %-6s%s\n" m.name m.value m.unit tail

(* A percentile is reportable only with [Samples.min_beyond] samples
   beyond it. *)
let unreportable ms =
  List.filter_map
    (fun m ->
      match m.samples with
      | Some s when not (Samples.valid s) -> Some m.name
      | _ -> None)
    ms

(* The last line of standard output. *)
let result_line ~correct ~attempted ~failed ms =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else failwith "non-finite metric value"
  in
  let fields =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value) m.unit)
      ms
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

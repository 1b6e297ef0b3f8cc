(* Cross-request batch fusion: the coalescing layer between [Protocol]
   and the pool.

   The server holds fusable MC-bearing requests in a bounded window and
   flushes them as one fused job; [prepare] then runs every distinct
   cold estimate of the batch through ONE [Montecarlo.run_many] pool
   fan-out — one kernel fetch per distinct design, one autotune plan,
   one chunk-claimed mega-job — and hands the results back as a
   key-indexed overlay.  Each request still executes through
   [Protocol.execute] afterwards, so response rendering, cache
   accounting and error semantics are exactly the unbatched path's;
   fusion moves wall-clock time, never bytes.

   Synchronization: the buffer ([add]/[take]/[length]/[deadline]/
   [view]) is deliberately lock-free — the server calls it under its
   own scheduler mutex, from the select loop and the stats probe only.
   [prepare] runs on a worker thread and touches only thread-safe
   state (the artifact cache, the base context's pool). *)

open Nanodec_numerics
module Run_ctx = Nanodec_parallel.Run_ctx
module Telemetry = Nanodec_telemetry.Telemetry
module Fault = Nanodec_fault.Fault
module Kernel = Nanodec_crossbar.Kernel

type reason = [ `Window | `Full | `Drain ]

type stats = {
  mutable batches : int;  (* fused (size >= 2) executions *)
  mutable fused_requests : int;
  mutable flush_window : int;
  mutable flush_full : int;
  mutable flush_drain : int;
  mutable flushes : int;
  size_counts : int array;  (* flushed-batch size histogram, index = size *)
  mutable size_max : int;
}

type 'a t = {
  window_s : float;
  max_batch : int;
  mutable buf : 'a list;  (* newest first; [take] restores arrival order *)
  mutable len : int;
  mutable deadline : float option;  (* set when the first request buffers *)
  mutable ordinal : int;  (* serve.batch fault key: fused-batch index *)
  stats : stats;
}

let create ~window_s ~max_batch =
  if not (window_s > 0.) then
    invalid_arg "Batcher.create: window_s must be > 0";
  if max_batch < 2 then invalid_arg "Batcher.create: max_batch must be >= 2";
  {
    window_s;
    max_batch;
    buf = [];
    len = 0;
    deadline = None;
    ordinal = 0;
    stats =
      {
        batches = 0;
        fused_requests = 0;
        flush_window = 0;
        flush_full = 0;
        flush_drain = 0;
        flushes = 0;
        size_counts = Array.make (max_batch + 1) 0;
        size_max = 0;
      };
  }

let length t = t.len
let max_batch t = t.max_batch
let deadline t = t.deadline

let add t x ~now =
  if t.len = 0 then t.deadline <- Some (now +. t.window_s);
  t.buf <- x :: t.buf;
  t.len <- t.len + 1

(* Drain the buffer in arrival order.  The fused-batch ordinal (the
   [serve.batch] fault key) advances only for real fusions (size >= 2):
   single-request flushes take the unfused path and must not shift the
   deterministic fault schedule of the batches around them. *)
let take t ~reason =
  let reqs = List.rev t.buf in
  let n = t.len in
  t.buf <- [];
  t.len <- 0;
  t.deadline <- None;
  let s = t.stats in
  if n > 0 then begin
    (match reason with
    | `Window -> s.flush_window <- s.flush_window + 1
    | `Full -> s.flush_full <- s.flush_full + 1
    | `Drain -> s.flush_drain <- s.flush_drain + 1);
    s.flushes <- s.flushes + 1;
    if n <= t.max_batch then s.size_counts.(n) <- s.size_counts.(n) + 1;
    if n > s.size_max then s.size_max <- n;
    if n >= 2 then begin
      s.batches <- s.batches + 1;
      s.fused_requests <- s.fused_requests + n
    end
  end;
  let ordinal = t.ordinal in
  if n >= 2 then t.ordinal <- ordinal + 1;
  (reqs, ordinal)

let size_p50 t =
  if t.stats.flushes = 0 then 0
  else begin
    let need = (t.stats.flushes + 1) / 2 in
    let cum = ref 0 in
    let res = ref t.stats.size_max in
    (try
       for s = 1 to Array.length t.stats.size_counts - 1 do
         cum := !cum + t.stats.size_counts.(s);
         if !cum >= need then begin
           res := s;
           raise Exit
         end
       done
     with Exit -> ());
    !res
  end

let view t =
  {
    Protocol.window_s = t.window_s;
    max_batch = t.max_batch;
    buffered = t.len;
    batches = t.stats.batches;
    fused_requests = t.stats.fused_requests;
    flush_window = t.stats.flush_window;
    flush_full = t.stats.flush_full;
    flush_drain = t.stats.flush_drain;
    size_p50 = size_p50 t;
    size_max = t.stats.size_max;
  }

(* --- fused execution --- *)

let prepare ~state ~ordinal plans =
  let base = Protocol.base state in
  let fault = Run_ctx.fault base in
  let tel = Run_ctx.telemetry base in
  let cache = Protocol.artifacts state in
  match
    (* The whole fused batch is one fault-injection decision, keyed by
       the batch ordinal — a deterministic schedule for chaos tests. *)
    Fault.hit fault ~key:ordinal "serve.batch";
    (* Distinct cold keys, in arrival order; duplicates and warm keys
       answer from the cache inside their own request execution. *)
    let seen = Hashtbl.create 8 in
    let todo =
      List.filter
        (fun p ->
          (not (Hashtbl.mem seen p.Protocol.fuse_key))
          && (not (Artifact_cache.mem cache p.Protocol.fuse_key))
          &&
          (Hashtbl.add seen p.Protocol.fuse_key ();
           true))
        plans
    in
    let items =
      List.map
        (fun p ->
          (* Same cache rounds the solo builder makes, and the same
             keyless [cave.window] probe per estimate, so an active
             fault plan paces the fused path like the unbatched one. *)
          let _a, _ = Artifacts.analysis cache p.Protocol.fuse_config in
          let k, _ = Artifacts.kernel cache p.Protocol.fuse_config in
          Fault.hit fault "cave.window";
          ( p.Protocol.fuse_spec,
            Rng.create ~seed:p.Protocol.fuse_seed,
            Kernel.target k ))
        todo
    in
    let estimates = Montecarlo.run_many ~ctx:base (Array.of_list items) in
    let overlay : Protocol.overlay = Hashtbl.create (max 1 (List.length todo)) in
    List.iteri
      (fun i p ->
        Telemetry.count tel "kernel.samples" estimates.(i).Montecarlo.samples;
        Hashtbl.replace overlay p.Protocol.fuse_key estimates.(i))
      todo;
    overlay
  with
  | overlay -> Some overlay
  | exception _ ->
    (* Anything — an injected serve.batch/cave.window crash, a surprise
       from the fused run — falls the batch back to per-request
       execution: every request re-derives its own result (or its own
       classified error) exactly as if it had never been fused. *)
    Telemetry.count tel "serve.batch.fallbacks" 1;
    None

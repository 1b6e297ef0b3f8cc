(** Cross-request batch fusion for the daemon: coalesce the Monte-Carlo
    work of concurrent requests into shared kernel mega-batches.

    The server buffers fusable requests ({!Protocol.plan_of})
    for a bounded window and flushes them as one fused job; {!prepare}
    then computes every distinct cold estimate of the batch through a
    single {!Nanodec_numerics.Montecarlo.run_many} fan-out and returns a
    {!Protocol.overlay} for the per-request executions that follow.
    Fusion is pure scheduling: each request keeps its own seeded stream
    family, so per-request results — and response bytes — are identical
    to unbatched execution.

    The buffer operations ([add]/[take]/[length]/[deadline]/[view]) are
    {e not} thread-safe on their own: the server calls them under its
    scheduler mutex.  {!prepare} runs on a worker thread without that
    mutex and touches only thread-safe state. *)

type reason = [ `Window | `Full | `Drain ]
(** Why a flush happened: the window deadline expired (also used for
    the eager flush when nothing else is outstanding), the buffer
    reached [max_batch], or shutdown drain forced it out. *)

type 'a t

val create : window_s:float -> max_batch:int -> 'a t
(** [window_s] must be > 0 (a zero window means batching is off — the
    server simply never constructs a batcher); [max_batch >= 2]. *)

val length : 'a t -> int
val max_batch : 'a t -> int

val deadline : 'a t -> float option
(** Absolute time the current window expires; [None] when empty. *)

val add : 'a t -> 'a -> now:float -> unit
(** Buffer one request; the first request of a window arms the
    deadline at [now + window_s]. *)

val take : 'a t -> reason:reason -> 'a list * int
(** Drain the buffer in arrival order and record flush statistics.
    Returns the requests and the fused-batch ordinal — the
    [serve.batch] fault key.  The ordinal advances only for real
    fusions (size >= 2); single-request flushes take the unfused path
    and must not shift the fault schedule of the batches around them. *)

val view : 'a t -> Protocol.batch_view
(** Cumulative statistics for the [stats] verb and [bench --serve]. *)

val prepare :
  state:Protocol.state ->
  ordinal:int ->
  Protocol.fuse_plan list ->
  Protocol.overlay option
(** Execute the fused Monte-Carlo work of one flushed batch: one
    [serve.batch] fault decision keyed by [ordinal], then every
    distinct cold key's estimate via one [Montecarlo.run_many] over the
    shared kernels (same artifact-cache rounds, same keyless
    [cave.window] probe and [kernel.samples] accounting as the solo
    builder).  [Some overlay] on success — possibly empty when every
    key turned out warm.  [None] when anything raises (an injected
    [serve.batch] crash included): the batch falls back to per-request
    execution, bytes unchanged; counted as [serve.batch.fallbacks]. *)

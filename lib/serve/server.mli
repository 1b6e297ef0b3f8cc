(** The daemon's socket loop: accept, frame lines, dispatch, survive.

    One [select] loop multiplexes any number of client connections
    over a Unix-domain or loopback TCP socket and owns all socket
    state; each complete request line is prepared once
    ({!Protocol.prepare}) and dispatched onto a bounded queue served by
    [max_inflight] worker threads — unless it is a warm hit (below).
    Concurrent execution is invisible on the wire: each connection's
    responses are written back in arrival order (later completions
    wait for earlier ones), so every response stream is byte-identical
    to the serial daemon's — the contract behind the CI smoke goldens
    and the concurrent-soak determinism test.

    {2 Admission control}

    At most [max_inflight + max_queue] requests are outstanding
    (executing or queued).  Beyond that the daemon sheds
    deterministically: the excess request is answered immediately with
    a structured [Overloaded] error ({!Nanodec_error.exit_overloaded})
    and counted in the [serve.shed] telemetry counter; accepted
    requests record the post-admission depth in the
    [serve.queue_depth] histogram.  Because the bound counts
    submissions minus completions, the shed decision never depends on
    how quickly a worker thread happens to be scheduled.

    {2 Warm hits}

    An [evaluate] or [yield] that {!Protocol.warm} reports answerable
    from the result cache — no cache bypass, every artifact key it
    reads resident — is executed on the select thread itself when the
    daemon runs without a fault plan: no worker handoff, no self-pipe
    wakeup, and its bytes are written straight after the read that
    delivered it.  It keeps the [serve.dispatch] probe key, the cache
    accounting and the [serve.request_s] record of a dispatched
    request, and the arrival-order response writing (behind a slower
    earlier request it waits its turn).  Warm hits bypass admission
    control — they never count toward [max_inflight + max_queue] and
    are never shed — and are counted in the [serve.inline] telemetry
    counter and the [stats] verb's [inline] field.

    {2 Batch fusion}

    With [batch_window_s > 0], fusable MC-bearing requests
    ({!Protocol.plan_of}) whose estimate key is cold coalesce
    in a bounded window instead of dispatching one-by-one: the window
    flushes when it expires, when [max_batch] requests have buffered,
    or eagerly the moment its members are the only outstanding work
    (so a serial client never pays the window as latency).  A flushed
    batch of two or more ships as one fused job — one shared
    {!Nanodec_numerics.Montecarlo.run_many} mega-run over the batch's
    distinct cold estimates ({!Batcher.prepare}), then per-request
    execution against the precomputed overlay.  Fusion is pure
    scheduling: response bytes, cache accounting and arrival-order
    writing are identical to the unbatched daemon.  Telemetry:
    [serve.batch.size] histogram, [serve.batch.fused] and
    [serve.batch.flush.{window,full,drain}] counters; an injected
    [serve.batch] crash (keyed by the fused-batch ordinal) falls the
    batch back to per-request execution and counts
    [serve.batch.fallbacks].

    {2 Robustness}

    {ul
    {- a line longer than [max_line_bytes] is answered with an
       [invalid-input] error and the connection resynchronises at the
       next newline;}
    {- client disconnects, [EPIPE]/[ECONNRESET] and half-written
       responses only ever close that one connection — requests it
       already submitted still execute, their responses are discarded;}
    {- with [idle_timeout_s] set, a connection that has been silent
       past the deadline — or drip-feeding a single incomplete line
       past it (slowloris) — is closed, but never while it is owed a
       response;}
    {- a [shutdown] request or SIGTERM triggers a graceful drain:
       no new connects, no new reads, every dispatched or queued
       request finishes and flushes, a final cache snapshot is
       written, the workers are joined;}
    {- an injected [serve.dispatch] crash is answered as a classified
       error response; an injected [serve.snapshot] crash skips that
       snapshot cycle with a warning — neither kills the daemon.}}

    {2 Crash-safe cache persistence}

    With [cache_file] set, the artifact cache is restored from the
    snapshot at startup (any corrupt, truncated or mismatched file is
    ignored with a warning — a cold cache, never a crash loop) and
    re-snapshotted every [snapshot_interval_s] seconds whenever its
    contents changed, plus once on graceful drain.  Snapshots are
    checksummed and published atomically ({!Snapshot}), so [kill -9]
    at any instant leaves a loadable file and warm-cache hits survive
    the restart byte-identically.

    When the protocol state's base context carries a telemetry sink,
    every executed request (inline or dispatched) records its latency
    in the [serve.request_s] histogram and bumps [serve.requests]. *)

type address =
  [ `Unix of string  (** filesystem path of a Unix-domain socket *)
  | `Tcp of int  (** loopback TCP port; 0 lets the kernel pick *) ]

type t

val default_max_line_bytes : int
(** 1 MiB. *)

val default_max_inflight : int
(** 4 worker threads. *)

val default_max_queue : int
(** 64 queued requests beyond the workers. *)

val create :
  ?backlog:int ->
  ?max_line_bytes:int ->
  ?max_inflight:int ->
  ?max_queue:int ->
  ?batch_window_s:float ->
  ?max_batch:int ->
  ?idle_timeout_s:float ->
  ?cache_file:string ->
  ?snapshot_interval_s:float ->
  state:Protocol.state ->
  address ->
  t
(** Bind and listen (unlinking a pre-existing Unix socket path), load
    the [cache_file] snapshot if one is given, install the scheduler
    probe into [state] and start the worker threads.  TCP binds
    loopback only.  [batch_window_s] defaults to 0 (batch fusion off —
    the CLI defaults it on at 2 ms); [max_batch] to 32 (must be >= 2).
    [idle_timeout_s] defaults to off; [snapshot_interval_s] to 5 s
    (meaningful only with [cache_file]).  Raises
    [Nanodec_error.Error (Invalid_input _)] when the address cannot be
    bound or a knob is out of range. *)

val address : t -> address
(** The bound address — for [`Tcp 0], the port the kernel picked. *)

val serve : t -> unit
(** Run the loop until a [shutdown] request or SIGTERM completes the
    graceful drain.  The socket is closed (and a Unix path unlinked)
    on return. *)

val close : t -> unit
(** Close the listening socket and every connection without draining.
    Safe to call from another thread to abort {!serve}. *)

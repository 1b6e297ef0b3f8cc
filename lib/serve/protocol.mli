(** The daemon's wire protocol: newline-delimited JSON requests in,
    newline-delimited JSON responses out.

    A request is one JSON object per line:

    {v
    {"id":1,"verb":"evaluate",
     "params":{"code":"BGC","length":10,"radix":2,"wires":20,
               "raw_bits":131072},
     "exec":{"seed":7,"mc_samples":1000,"timeout":5.0,
             "fault_plan":"seed=1;pool.chunk:crash:p=1",
             "no_degrade":true,"chunks":"auto"}}
    v}

    and the response is one JSON object per line, either

    {v {"id":1,"status":"ok","verb":"evaluate","cached":false,"result":{...}} v}

    or the error shape that mirrors the CLI's exit codes
    ({!Nanodec_error.exit_code}) as machine-readable fields:

    {v {"id":1,"status":"error","kind":"invalid-input","exit_code":2,
        "message":"...","hint":...} v}

    {!handle_line} never raises and never kills the connection: malformed
    JSON, unknown verbs, out-of-range numerics and classifiable runtime
    failures ({!Nanodec.Errors.classify}) all render as error responses;
    even unclassifiable exceptions render as [internal] rather than
    crashing the daemon.  Responses carry no wall-clock or host fields,
    so equal requests produce byte-equal responses — the property the
    CI smoke goldens and the concurrent-soak determinism test rely on.

    Execution knobs in ["exec"] are validated by the same
    {!Nanodec_error} validators as the CLI flags and applied through
    {!Nanodec_parallel.Run_ctx.with_request}: plain requests borrow the
    daemon's shared pool, while requests carrying a fault plan,
    [no_degrade] or a timeout run on a private request-scoped pool (and
    bypass the result caches, so injected faults and deadlines actually
    execute). *)

type state
(** One daemon's protocol state: the artifact cache, the shared base
    context and the request/error counters of the [stats] verb.  The
    counters and the stopping latch are atomic — {!handle_line} is safe
    to call from concurrent worker threads (responses stay pure
    functions of their requests; only the [stats] counters observe the
    interleaving). *)

(** A live view of the batch-fusion layer, nested in {!scheduler} when
    the server runs with a coalescing window ([--batch-window-ms] > 0).
    All counters are cumulative since boot. *)
type batch_view = {
  window_s : float;  (** the coalescing window, seconds *)
  max_batch : int;  (** flush threshold: requests per fused batch *)
  buffered : int;  (** fusable requests currently held in the window *)
  batches : int;  (** fused batches executed (size >= 2) *)
  fused_requests : int;  (** requests that rode in fused batches *)
  flush_window : int;  (** flushes triggered by the window deadline *)
  flush_full : int;  (** flushes triggered by [max_batch] *)
  flush_drain : int;  (** flushes forced by shutdown drain *)
  size_p50 : int;  (** median flushed batch size (0 before any flush) *)
  size_max : int;  (** largest flushed batch size *)
}

(** A live view of the server's dispatch scheduler, reported by the
    [stats] verb and (as drained-vs-shed counts) by [shutdown]. *)
type scheduler = {
  max_inflight : int;  (** worker-thread count *)
  max_queue : int;  (** admission bound beyond the workers *)
  inflight : int;  (** requests executing right now *)
  queued : int;  (** requests waiting for a worker *)
  shed : int;  (** requests refused with [Overloaded] so far *)
  inline : int;
      (** warm hits answered on the select thread so far (never
          queued, never shed) *)
  snapshot_age_s : float option;
      (** seconds since the last successful cache snapshot; [None]
          when persistence is off or nothing was written yet *)
  batch : batch_view option;
      (** the batch-fusion layer's state; [None] when batching is off
          (or for direct [handle_line] callers) *)
}

val make_state :
  ?cache_enabled:bool ->
  ?cache_capacity:int ->
  base:Nanodec_parallel.Run_ctx.t ->
  unit ->
  state
(** [cache_capacity] defaults to 256 entries; [cache_enabled:false] is
    [serve --no-cache] (every request executes cold). *)

val artifacts : state -> Artifacts.t

val base : state -> Nanodec_parallel.Run_ctx.t
(** The shared base context requests derive from — the server reads
    its telemetry sink for the [serve.request_s] histogram. *)

val requests : state -> int
(** Lines processed so far (including malformed ones). *)

val errors : state -> int
(** Lines answered with an error response. *)

val stopping : state -> bool
(** Set once a [shutdown] request has been answered; the server loop
    drains and exits when it sees this. *)

val set_scheduler_probe : state -> (unit -> scheduler) option -> unit
(** Install the server's scheduler view (called once, before any
    worker runs).  Without a probe the [stats]/[shutdown] scheduling
    fields report the serial picture: one in-flight request (the one
    being answered), nothing queued, nothing shed. *)

val known_verbs : string list
(** ping, evaluate, yield, sweep, codes, check, stats, shutdown. *)

(** {2 Request preparation} *)

type request
(** One request line, parsed, validated and keyed exactly once: its id,
    verb and execution knobs, its design parameters and — for
    [evaluate]/[yield] — the seed, sampling spec and artifact keys its
    execution will read.  A line that fails to parse or validate
    prepares into its error response.  Immutable, so it may be prepared
    on one thread and executed on another. *)

val prepare : state -> string -> request
(** Total and cheap: never raises, never touches the artifact cache,
    never runs Monte-Carlo work. *)

val warm : state -> request -> bool
(** [true] when the request would answer entirely from the result
    cache right now: an [evaluate] or [yield] that is not a cache
    bypass (fault plan, [no_degrade], deadline) and whose every read
    artifact key — the report and the estimate of an [evaluate], the
    analysis and the estimate of a [yield] — is resident.  A pure probe
    (no counter moves, no recency refresh); a concurrent insert may
    still evict a key before execution, which then rebuilds it. *)

(** {2 Batch fusion} *)

type fuse_plan = {
  fuse_key : string;
      (** the artifact-cache key this request's estimate will occupy *)
  fuse_seed : int;
  fuse_samples : int;
  fuse_spec : Nanodec_numerics.Montecarlo.spec;
      (** the exact (strategy × fixed-stopping) spec the request's own
          execution would run *)
  fuse_config : Nanodec_crossbar.Cave.config;
}
(** The fusable identity of one request: everything the batch layer
    needs to precompute its Monte-Carlo estimate as part of a fused
    mega-job and overlay the result onto the very key the request's own
    execution looks up. *)

val plan_of : request -> fuse_plan option
(** Whether the request's MC work can ride a fused batch: an MC-bearing
    verb ([yield], or [evaluate] with [mc_samples]), no cache bypass
    (fault plan / [no_degrade] / timeout), fixed stopping (no
    [rel_error] on the request or the base context).  A rejected
    request is never fusable; it takes the unfused path, which renders
    its error unchanged. *)

val classify_fusable : state -> string -> fuse_plan option
(** [plan_of (prepare state line)]. *)

type overlay = (string, Nanodec_numerics.Montecarlo.estimate) Hashtbl.t
(** Fused results keyed by {!fuse_plan.fuse_key}, handed back to
    {!handle_line}: a request whose estimate key is in the overlay
    installs the precomputed bits through the artifact cache's own
    [find_or_build] accounting, so hit/miss counters and the [cached]
    response flag are exactly what serial unbatched execution
    produces. *)

(** {2 Execution} *)

val execute : ?overlay:overlay -> state -> request -> string
(** Execute a prepared request and return the response line (newline
    not included).  Total: never raises.  [?overlay] supplies fused
    batch results — pure overlay, never steering: with or without it
    the response bytes are identical.  A fully cached [evaluate]/
    [yield] splices its result bytes kept beside its artifact
    ({!Artifact_cache.set_rendered}) instead of re-rendering them. *)

val handle_line : ?overlay:overlay -> state -> string -> string
(** [execute ?overlay state (prepare state line)]. *)

val error_line : Nanodec_error.t -> string
(** Render a connection-level error (no request to take an ["id"]
    from) in the same error shape {!handle_line} uses — the server's
    oversized-line response goes through this. *)

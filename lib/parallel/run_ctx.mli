(** The execution context every expensive entry point takes.

    [Run_ctx.t] bundles what used to travel as scattered optional
    arguments — the domain pool, the Monte-Carlo seed and sample count,
    the telemetry sink, and (new with the robustness layer) the fault
    engine, job deadline and cancellation token — into one value built
    once (usually from the CLI flags) and threaded through sweeps,
    figures, scaling, ablations and Monte-Carlo estimators alike:

    {[
      Run_ctx.with_ctx ~domains:4 ~telemetry:sink (fun ctx ->
          Nanodec.Optimizer.sweep ~ctx ())
    ]}

    The context never influences numeric results except through the
    seed and sample count it explicitly carries: pool size, telemetry,
    deadlines and fault plans are observability/robustness knobs only,
    and every consumer is bit-for-bit invariant in them for runs that
    complete successfully.

    {2 Chaos boundary}

    {!make} is the single place where the [NANODEC_FAULT_PLAN]
    environment variable activates: an explicit [~fault] argument wins,
    otherwise the environment plan (if any) is parsed and installed.
    Code that builds a bare {!Pool.t} directly never sees the
    environment plan — so the chaos CI job can export a plan and rerun
    the whole test suite while pool-level unit tests stay
    injection-free.  When the context also carries a telemetry sink,
    the engine is attached to it so every injected fault is recorded
    ([fault.fired.<site>], [fault.injected.<action>]). *)

type t

type chunking =
  | Auto  (** let {!Autotune} size chunks and batches per job *)
  | Fixed of int
      (** exactly this many scheduling chunks, claimed one at a time
          (the CLI's [--chunks N]); must be >= 1 *)
(** How the Monte-Carlo estimators cut a job into pool chunks.  A pure
    scheduling policy: estimates are bit-for-bit identical under every
    [chunking], domain count and batch size — the per-sample stream
    discipline guarantees it. *)

(** The Monte-Carlo sampling strategy the context's estimators should
    use.  The datatype lives here (not in [Nanodec_numerics]) because
    the context is the value that travels from the CLI flags and the
    serve protocol down to every estimator; {!Nanodec_numerics}'s
    [Montecarlo.strategy] re-exports it by equation, so the two are the
    same type.  Unlike {!chunking}, the method {e is} part of the
    numeric result: each strategy is a different (equally unbiased)
    estimator with its own draw stream. *)
type mc_method =
  | Plain  (** independent draws — the exact reference estimator *)
  | Antithetic
      (** evaluate each draw and its sign-mirrored twin as one pair *)
  | Stratified of int
      (** stratify the dominant noise axis into this many strata
          (>= 2) *)
  | Importance of float
      (** shift the dominant-region Gaussian toward the failure
          boundary by this fraction of the window (> 0, finite) and
          reweight exactly *)

val default_seed : int
(** 2009 — the paper year, the seed used throughout the reproduction. *)

val default_mc_samples : int
(** 4000 — the full-resolution Monte-Carlo workload of the bench. *)

val sequential : t
(** The context every [?ctx] consumer falls back to when none is given:
    no pool, {!default_seed}, {!default_mc_samples}, [Auto] chunking,
    {!Plain} sampling, and no telemetry, fault engine, deadline or
    cancellation.  A constant: unlike {!make} it never reads
    [NANODEC_FAULT_PLAN]. *)

val make :
  ?domains:int ->
  ?pool:Pool.t ->
  ?seed:int ->
  ?mc_samples:int ->
  ?telemetry:Nanodec_telemetry.Telemetry.sink ->
  ?fault:Nanodec_fault.Fault.t ->
  ?timeout_s:float ->
  ?cancel:Pool.Cancel.t ->
  ?chunking:chunking ->
  ?batch:int ->
  ?mc_method:mc_method ->
  ?rel_error:float ->
  ?max_retries:int ->
  ?degrade:bool ->
  ?warn:bool ->
  unit ->
  t
(** Builder-style constructor.  [~domains] spawns a pool owned by the
    context ({!shutdown} joins it); [~pool] borrows an existing pool
    (the caller keeps shutdown duty) — passing both raises
    [Invalid_argument], passing neither leaves the context sequential.
    When both a pool and a sink are given, the sink is attached to the
    pool so scheduler probes land in it; likewise the fault engine.
    [fault] defaults to the [NANODEC_FAULT_PLAN] environment plan when
    that is set (raising [Nanodec_error.Error (Invalid_input _)] on a
    malformed value).  [timeout_s] (strictly positive) and [cancel] are
    handed to every pool fan-out made through this context.
    [max_retries] and [degrade] configure the spawned pool's
    supervision policy (borrowed pools keep their own settings).
    [chunking] (default [Auto]) selects the estimators' scheduling
    policy and [batch] (>= 1) overrides the per-claim batch size of
    every estimator fan-out; [Fixed n] with [n < 1] or [batch < 1]
    raise [Invalid_argument].  [mc_method] (default {!Plain}) and
    [rel_error] select the estimators' sampling strategy and, when
    [rel_error] is set (must lie in (0, 0.5]), CI-driven adaptive
    stopping — the context carries them exactly as it carries [seed]
    and [mc_samples], and consumers build their [Montecarlo.spec] from
    them.  [seed] defaults to {!default_seed}, [mc_samples] to
    {!default_mc_samples} (raises [Invalid_argument] when negative). *)

val with_ctx :
  ?domains:int ->
  ?pool:Pool.t ->
  ?seed:int ->
  ?mc_samples:int ->
  ?telemetry:Nanodec_telemetry.Telemetry.sink ->
  ?fault:Nanodec_fault.Fault.t ->
  ?timeout_s:float ->
  ?cancel:Pool.Cancel.t ->
  ?chunking:chunking ->
  ?batch:int ->
  ?mc_method:mc_method ->
  ?rel_error:float ->
  ?max_retries:int ->
  ?degrade:bool ->
  ?warn:bool ->
  (t -> 'a) ->
  'a
(** [make] + [f] + {!shutdown}, exception-safe. *)

val shutdown : t -> unit
(** Join the pool iff this context spawned it ([make ~domains]). *)

val pool : t -> Pool.t option
val seed : t -> int
val mc_samples : t -> int
val telemetry : t -> Nanodec_telemetry.Telemetry.sink option
val fault : t -> Nanodec_fault.Fault.t option
val timeout_s : t -> float option
val cancel : t -> Pool.Cancel.t option
val chunking : t -> chunking

val batch : t -> int option
(** Explicit per-claim batch size for estimator fan-outs; [None] leaves
    it to the chunking plan. *)

val mc_method : t -> mc_method
val rel_error : t -> float option

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list ctx f xs] maps through the context's pool (or
    sequentially without one), threading the context's deadline and
    cancellation token into the fan-out.  The one-liner the sweep,
    figure, scaling and ablation pipelines use. *)

val with_request :
  base:t ->
  ?seed:int ->
  ?mc_samples:int ->
  ?timeout_s:float ->
  ?fault:Nanodec_fault.Fault.t ->
  ?chunking:chunking ->
  ?mc_method:mc_method ->
  ?rel_error:float ->
  ?degrade:bool ->
  ?warn:bool ->
  (t -> 'a) ->
  'a
(** Per-request context derivation — the serve daemon's workhorse.
    [with_request ~base ?seed ... f] runs [f] under a context that
    overrides the given knobs and inherits everything else (pool,
    telemetry sink, cancellation) from [base].  Two regimes:

    {ul
    {- without a request fault plan and with [degrade] left [true]
       (the default), the derived context {e borrows} the base pool
       without mutating it — any number of requests can derive from one
       base concurrently;}
    {- a request carrying [?fault] or [~degrade:false] gets a {e
       private} pool of the same domain width, joined before
       [with_request] returns: an exhausted retry budget poisons a pool
       permanently, so request-scoped chaos must never touch the shared
       one.  Results are bit-for-bit identical either way by the pool
       determinism contract.}}

    Unlike {!make}, the [NANODEC_FAULT_PLAN] environment boundary is
    {e not} re-read for the borrow path — the base context already
    resolved it; the private-pool path re-enters {!make} and therefore
    honours it, matching what a standalone run of the request would
    see.  Raises [Invalid_argument] on a non-positive [timeout_s],
    negative [mc_samples] or [Fixed n < 1], like {!make}. *)

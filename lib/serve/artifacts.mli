(** The daemon's typed artifact layer over {!Artifact_cache}.

    One LRU cache holds every artifact kind behind a closed variant, so
    capacity is a single budget across kinds and the capacity-1
    eviction oracle exercises cross-kind eviction too.  Each accessor
    derives its canonical key from the cache-keyed constructors of the
    owning library ({!Nanodec_crossbar.Cave.config_key},
    {!Nanodec_mspt.Pattern.cache_key},
    {!Nanodec_codes.Codebook.cache_key}) and returns the artifact plus
    a hit flag — the [cached] bit of the protocol's responses.

    Every builder is a pure function of its key (Monte-Carlo estimates
    included: the per-sample stream discipline makes them a pure
    function of (config, seed, samples)), so a hit is bit-for-bit
    identical to a rebuild — the invariant the [cache_hit ≡ cache_miss]
    oracle enforces over arbitrary request sequences. *)

open Nanodec_codes
open Nanodec_numerics
open Nanodec_crossbar
open Nanodec

(** The artifact kinds the daemon amortizes. *)
type value =
  | Words of Word.t list  (** a code family's word sequence *)
  | Nu of Imatrix.t  (** ν matrix of a pattern *)
  | Analysis of Cave.analysis
  | Kernel of Kernel.t  (** compiled Monte-Carlo pass program *)
  | Report of Design.report  (** full closed-form design report *)
  | Estimate of Montecarlo.estimate
      (** MC window-yield estimate of (config, seed, samples) *)
  | Sweep of Design.report list
      (** the full candidate grid of one platform spec *)

type t = value Artifact_cache.t

val snapshot_schema : string
(** The {!Snapshot} schema tag for caches of {!value} entries — bumped
    whenever the artifact shapes change, so stale snapshot files load
    as cold caches rather than as misinterpreted bytes.  Every [value]
    constructor holds pure data (arrays, floats, lists — no closures),
    which is what makes the marshalled snapshot well-defined. *)

val create : ?enabled:bool -> capacity:int -> unit -> t

val words :
  t -> radix:int -> length:int -> count:int -> Codebook.t -> Word.t list * bool

val nu : t -> Nanodec_mspt.Pattern.t -> Imatrix.t * bool

(** The per-design key functions take the configuration's canonical
    {!Nanodec_crossbar.Cave.config_key} (not the configuration), so a
    caller deriving several keys of one design serializes it once. *)

val analysis_key : string -> string
(** [analysis_key (Cave.config_key c)]: the cache key of [c]'s
    analysis. *)

val analysis : ?key:string -> t -> Cave.config -> Cave.analysis * bool
(** Builds through the {!nu} cache ([Cave.analyze ?nu]).  [?key] is
    the precomputed {!analysis_key} of the config, for callers that
    derived it already. *)

val kernel : t -> Cave.config -> Kernel.t * bool
(** Builds through the {!analysis} cache
    ([Cave.kernel_of_analysis]). *)

val report_key : raw_bits:int -> string -> string
(** [report_key ~raw_bits:s.raw_bits (Cave.config_key s.cave)]: the
    cache key of spec [s]'s design report. *)

val report : ?key:string -> t -> Design.spec -> Design.report * bool
(** [?key] is the precomputed {!report_key} of the spec. *)

val estimate_key :
  seed:int -> samples:int -> ?spec:Montecarlo.spec -> string -> string
(** [estimate_key ~seed ~samples ?spec (Cave.config_key c)]: the cache
    key of an MC window-yield estimate of [c].  Without
    [spec] it is the plain fixed-count key of (config, seed, samples),
    whose strategy is the daemon's; with [spec] the injective
    {!Montecarlo.spec_key} replaces the sample count, disjoint from the
    plain keys — every strategy/stopping combination is a distinct,
    equally deterministic estimate. *)

val estimate_with :
  t ->
  key:string ->
  build:(unit -> Montecarlo.estimate) ->
  Montecarlo.estimate * bool
(** One cache round at [key]: return the cached estimate, or install
    [build ()].  The batch fuser's overlay results and {!mc_estimate}
    both install through here, so hit/miss accounting — and the
    [cached] flag of every response — stays identical to serial
    unbatched execution. *)

val mc_estimate :
  t ->
  ctx:Nanodec_parallel.Run_ctx.t ->
  seed:int ->
  spec:Montecarlo.spec ->
  samples:int ->
  Cave.config ->
  Montecarlo.estimate
(** [Cave.mc_yield_window] through the {!analysis} and {!kernel}
    caches, uncached itself: the estimate's builder.  Caching it by
    {!estimate_key} is legitimate because the chunked estimator is
    bit-for-bit invariant in pool, chunking and domain count. *)

val sweep : t -> Design.spec -> Design.report list * bool
(** [Optimizer.sweep] of the default candidate grid on the spec's
    platform (sequential — rows are cheap closed forms; the cache, not
    the pool, is the serve path's amortizer here). *)

(** Half-cave decoder analysis: code assignment, variability and yield
    (paper, Section 6.1).

    The [n_wires] nanowires of a half cave are patterned sequentially with
    the chosen code family's word sequence; contact pads are placed by
    {!Geometry.place}.  A wire contributes to the yield when

    {ul
    {- it is owned by exactly one pad and within that pad's Ω unique
       codes, and}
    {- every one of its doping regions keeps its threshold voltage within
       ±window of nominal, each region's V_T being Gaussian with variance
       {m σ_T²·ν_i^j} from the fabrication model.}}

    The analytic yield is the mean wire success probability; the
    Monte-Carlo estimators re-sample fabrication noise, either with the
    same window criterion (validates the closed form) or with the full
    electrical uniqueness semantics of {!Addressing}. *)

open Nanodec_codes
open Nanodec_numerics

type config = {
  rules : Geometry.rules;
  sigma_t : float;  (** per-implant V_T standard deviation, volt *)
  sigma_base : float;
      (** intrinsic per-region V_T standard deviation (random dopant
          fluctuation, line-edge roughness), volt *)
  margin_fraction : float;
      (** addressability window as a fraction of the level separation *)
  supply_voltage : float;
  placement : Nanodec_physics.Vt_levels.placement;
  radix : int;
  code_type : Codebook.t;
  code_length : int;  (** M — doping regions per wire *)
  n_wires : int;  (** N — wires per half cave *)
}

val default_config : config
(** The paper's platform: PL 32 nm, PN 10 nm, σ_T 50 mV, 1 V supply,
    binary balanced Gray code of length 10, N = 20 — plus the calibrated
    parameters of EXPERIMENTS.md (window fraction 0.42, σ_0 100 mV). *)

type analysis = {
  config : config;
  layout : Geometry.layout;
  pattern : Nanodec_mspt.Pattern.t;
  nu : Imatrix.t;
  omega : int;
  wire_probability : float array;
      (** per-wire addressability probability; 0 for removed wires *)
  yield : float;  (** cave yield Y — mean of [wire_probability] *)
}

val analyze : ?nu:Imatrix.t -> config -> analysis
(** [?nu] is the precomputed {!Nanodec_mspt.Variability.nu_matrix} of
    the config's pattern (keyed by
    {!Nanodec_mspt.Pattern.cache_key} in the serve artifact cache);
    passing it skips the recount, the result is identical either way. *)

val config_key : config -> string
(** Canonical, injective serialization of every parameter {!analyze}
    reads ("cave/v1|..."): the content-address of the analysis, the
    compiled kernel and every Monte-Carlo estimate derived from this
    configuration.  Floats render as exact hex ([%h]), so distinct
    configurations never collide and the key is platform-stable. *)

val wire_window_probability :
  sigma_t:float -> sigma_base:float -> window:float -> nu_row:int array -> float
(** {m Π_j \mathrm{erf}\big(w / √{2(σ_0² + ν_j σ_T²)}\big)} — success
    probability of one wire given its doping-operation counts. *)

val kernel_of_analysis : analysis -> Kernel.t
(** Compile the analysis' pass program, usable-wire flags, σ terms and
    window into a {!Kernel.t}.  Pure and reusable: compile once, then
    share the kernel across any number of estimates and domains. *)

val mc_yield_window :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  ?spec:Montecarlo.spec ->
  ?kernel:Kernel.t ->
  Rng.t ->
  samples:int ->
  analysis ->
  Montecarlo.estimate
(** Monte-Carlo re-estimate of the analytic yield by sampling fabrication
    noise and applying the window test, on {!Montecarlo.run} over the
    compiled {!Kernel}'s {!Kernel.target}.  The result is bit-for-bit
    identical for every chunking, batch size and domain count (including
    no context at all) {e and} — on the plain strategy — to
    {!mc_yield_window_reference} of the same arguments.  All shared
    state (the compiled pass program) is computed once before the
    fan-out, never per chunk; chunk bodies only read it, drawing into
    domain-local workspace scratch.

    The sampling configuration resolves in order: an explicit [?spec]
    wins ([samples] is then ignored in favour of its stopping rule);
    otherwise the context's [mc_method]/[rel_error] knobs build one
    through {!Montecarlo.spec_of_ctx} with [samples] as the fixed count
    (or the adaptive cap).  [?ctx] (default
    {!Nanodec_parallel.Run_ctx.sequential}) also supplies pool, chunking
    policy and telemetry (spans [kernel.compile] and
    [cave.mc_yield_window], counter [kernel.samples] — counted {e
    after} the run, since adaptive stopping makes the spent count an
    output).  [?kernel] supplies a pre-compiled {!kernel_of_analysis}
    of the same analysis (the serve artifact cache holds one), skipping
    the per-call compile; the estimate is identical either way. *)

val mc_yield_functional :
  Rng.t -> samples:int -> analysis -> Montecarlo.estimate
(** Monte-Carlo yield under the full electrical semantics: a wire counts
    when it is the unique conductor of its pad under its own address. *)

val mc_yield_window_reference :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  Rng.t ->
  samples:int ->
  analysis ->
  Montecarlo.estimate
(** The pre-kernel allocating implementation of
    {!mc_yield_window} — a fresh N×M noise matrix and pass-list walk
    per sample.  Kept as the executable specification: the
    [kernel ≡ reference] oracle and the kernel bench gate compare
    against it, and it is the baseline of `BENCH_kernels.json`. *)

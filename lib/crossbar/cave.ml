open Nanodec_codes
open Nanodec_numerics
open Nanodec_physics
open Nanodec_mspt

let log_src = Logs.Src.create "nanodec.cave" ~doc:"Half-cave decoder analysis"

module Log = (val Logs.src_log log_src)

type config = {
  rules : Geometry.rules;
  sigma_t : float;
  sigma_base : float;
  margin_fraction : float;
  supply_voltage : float;
  placement : Vt_levels.placement;
  radix : int;
  code_type : Codebook.t;
  code_length : int;
  n_wires : int;
}

let default_config =
  {
    rules = Geometry.default_rules;
    sigma_t = 0.05;
    sigma_base = 0.10;
    margin_fraction = 0.42;
    supply_voltage = 1.0;
    placement = Vt_levels.Spread 0.1;
    radix = 2;
    code_type = Codebook.Balanced_gray;
    code_length = 10;
    n_wires = 20;
  }

let levels_of_config c =
  Vt_levels.make ~supply_voltage:c.supply_voltage ~placement:c.placement
    ~radix:c.radix ()

type analysis = {
  config : config;
  layout : Geometry.layout;
  pattern : Pattern.t;
  nu : Imatrix.t;
  omega : int;
  wire_probability : float array;
  yield : float;
}

let check_config c =
  if c.sigma_t <= 0. then invalid_arg "Cave: sigma_t must be positive";
  if c.sigma_base < 0. then invalid_arg "Cave: sigma_base must be >= 0";
  if not (c.margin_fraction > 0. && c.margin_fraction <= 0.5) then
    invalid_arg "Cave: margin_fraction outside (0, 0.5]";
  if c.n_wires < 1 then invalid_arg "Cave: n_wires must be positive";
  match Codebook.validate_length ~radix:c.radix ~length:c.code_length c.code_type with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cave: " ^ msg)

let window c = c.margin_fraction *. Vt_levels.separation (levels_of_config c)

let config_key c =
  (* Canonical, injective serialization of every parameter [analyze]
     reads: the artifact-cache key of the analysis, the compiled kernel
     and every estimate derived from this configuration.  Floats are
     rendered with %h (hex, exact) so distinct values never collide and
     the key is identical on every platform. *)
  let placement =
    match c.placement with
    | Vt_levels.Centered -> "centered"
    | Vt_levels.Spread rail -> Printf.sprintf "spread:%h" rail
  in
  let r = c.rules in
  Printf.sprintf
    "cave/v1|pl=%h|pn=%h|padf=%h|ovl=%h|wall=%h|row=%h|st=%h|s0=%h|mf=%h|vdd=%h|plc=%s|n=%d|%s|M=%d|N=%d"
    r.Geometry.litho_pitch r.Geometry.nanowire_pitch
    r.Geometry.pad_min_width_factor r.Geometry.pad_overlap
    r.Geometry.cave_wall r.Geometry.contact_row_length c.sigma_t
    c.sigma_base c.margin_fraction c.supply_voltage placement c.radix
    (Codebook.name c.code_type) c.code_length c.n_wires

let wire_window_probability ~sigma_t ~sigma_base ~window ~nu_row =
  (* Independent contributions: intrinsic region variability plus one
     sigma_t^2 of variance per doping operation received. *)
  Array.fold_left
    (fun acc nu ->
      let sigma =
        sqrt ((sigma_base *. sigma_base) +. (float_of_int nu *. sigma_t *. sigma_t))
      in
      acc *. Special.normal_interval_probability ~sigma ~half_width:window)
    1. nu_row

let is_usable = function
  | Geometry.Addressable _ -> true
  | Geometry.Shared_between_pads _ | Geometry.Excess_in_pad _ -> false

let analyze ?nu config =
  check_config config;
  let omega =
    Codebook.space_size ~radix:config.radix ~length:config.code_length
      config.code_type
  in
  let layout = Geometry.place config.rules ~omega ~n_wires:config.n_wires in
  let pattern =
    Pattern.of_codebook ~radix:config.radix ~length:config.code_length
      ~n_wires:config.n_wires config.code_type
  in
  (* [?nu] is the precomputed [Variability.nu_matrix pattern] — callers
     holding it (the serve artifact cache) skip the recount; the value
     is identical either way, so this is a pure fast path. *)
  let nu = match nu with Some nu -> nu | None -> Variability.nu_matrix pattern in
  let w = window config in
  let wire_probability =
    Array.init config.n_wires (fun i ->
        if is_usable layout.Geometry.statuses.(i) then
          wire_window_probability ~sigma_t:config.sigma_t
            ~sigma_base:config.sigma_base ~window:w ~nu_row:(Imatrix.row nu i)
        else 0.)
  in
  let yield = Descriptive.mean wire_probability in
  Log.debug (fun m ->
      m "cave %s M=%d: Omega=%d pads=%d removed=%d Y=%.3f"
        (Codebook.name config.code_type)
        config.code_length omega layout.Geometry.n_pads
        (Geometry.n_shared layout + Geometry.n_excess layout)
        yield);
  { config; layout; pattern; nu; omega; wire_probability; yield }

let passes_of_analysis analysis =
  (* The noise model only needs which regions each pass hits, so any
     injective digit → dose table works; small primes keep all pairwise
     differences distinct (no accidental dose merging). *)
  let dose_table = [| 2.; 3.; 7.; 17.; 41.; 83.; 167.; 331. |] in
  let h d =
    if d < Array.length dose_table then dose_table.(d)
    else float_of_int ((d * d * 13) + 5)
  in
  let _, s = Doping.of_pattern ~h analysis.pattern in
  Process.passes_of_step_matrix s

let noise_offsets rng analysis passes =
  let implant_noise =
    Process.sample_vt_noise rng ~sigma_t:analysis.config.sigma_t
      ~n_wires:analysis.config.n_wires
      ~n_regions:analysis.config.code_length passes
  in
  if analysis.config.sigma_base = 0. then implant_noise
  else
    Fmatrix.map
      (fun x -> x +. Rng.gaussian ~sigma:analysis.config.sigma_base rng)
      implant_noise

let mc_window_draw analysis ~passes ~w rng =
  let n = analysis.config.n_wires in
  let noise = noise_offsets rng analysis passes in
  let good = ref 0 in
  for i = 0 to n - 1 do
    if is_usable analysis.layout.Geometry.statuses.(i) then begin
      let wire_ok = ref true in
      for j = 0 to analysis.config.code_length - 1 do
        if Float.abs (Fmatrix.get noise i j) >= w then wire_ok := false
      done;
      if !wire_ok then incr good
    end
  done;
  float_of_int !good /. float_of_int n

let kernel_of_analysis analysis =
  Kernel.compile ~n_wires:analysis.config.n_wires
    ~n_regions:analysis.config.code_length ~sigma_t:analysis.config.sigma_t
    ~sigma_base:analysis.config.sigma_base ~window:(window analysis.config)
    ~usable:(Array.map is_usable analysis.layout.Geometry.statuses)
    (passes_of_analysis analysis)

let mc_yield_window ?ctx ?spec ?kernel rng ~samples analysis =
  (* Everything the chunk bodies share — here, the whole compiled pass
     program — is computed before the fan-out; the bodies only read it
     (and mutate their own stream and domain-local scratch).  [?kernel]
     lets a caller holding the compiled program (the serve artifact
     cache) skip the per-call compile; the kernel is pure, so the
     estimate is identical either way. *)
  let ctx = Option.value ctx ~default:Nanodec_parallel.Run_ctx.sequential in
  let tel = Nanodec_parallel.Run_ctx.telemetry ctx in
  let kernel =
    match kernel with
    | Some k -> k
    | None ->
      Nanodec_telemetry.Telemetry.with_span tel "kernel.compile"
      @@ fun () -> kernel_of_analysis analysis
  in
  (* An explicit spec wins; otherwise the context's mc_method/rel_error
     knobs pick it, with [samples] as the fixed count or adaptive cap. *)
  let spec =
    match spec with
    | Some s -> s
    | None -> Montecarlo.spec_of_ctx ~ctx ~samples ()
  in
  (* Fault site: before the fan-out.  When the estimate runs inside an
     outer pool chunk (the sweep pipelines), an injected crash here is
     recovered by that pool's retry/degradation; standalone callers see
     it classified as a worker crash at the taxonomy boundary. *)
  Nanodec_fault.Fault.hit (Nanodec_parallel.Run_ctx.fault ctx) "cave.window";
  Nanodec_telemetry.Telemetry.with_span tel "cave.mc_yield_window"
  @@ fun () ->
  let e = Montecarlo.run ~ctx spec rng (Kernel.target kernel) in
  (* Counted after the run: adaptive stopping makes the spent sample
     count an output, not an input. *)
  Nanodec_telemetry.Telemetry.count tel "kernel.samples"
    e.Montecarlo.samples;
  e

let mc_yield_window_reference ?ctx rng ~samples analysis =
  let passes = passes_of_analysis analysis in
  let w = window analysis.config in
  Montecarlo.run ?ctx
    (Montecarlo.spec (Montecarlo.fixed samples))
    rng
    (Montecarlo.target (mc_window_draw analysis ~passes ~w))

let mc_yield_functional rng ~samples analysis =
  let passes = passes_of_analysis analysis in
  let levels = levels_of_config analysis.config in
  let n = analysis.config.n_wires in
  let pad_of = function
    | Geometry.Addressable k -> Some k
    | Geometry.Shared_between_pads _ | Geometry.Excess_in_pad _ -> None
  in
  let one_draw rng =
    let noise = noise_offsets rng analysis passes in
    let wire_data =
      Array.init n (fun i ->
          (Pattern.word analysis.pattern ~wire:i, Fmatrix.row noise i))
    in
    (* Group wires by owning pad, then test electrical uniqueness. *)
    let groups = Hashtbl.create 16 in
    Array.iteri
      (fun i status ->
        match pad_of status with
        | Some k ->
          let members = Option.value ~default:[] (Hashtbl.find_opt groups k) in
          Hashtbl.replace groups k (i :: members)
        | None -> ())
      analysis.layout.Geometry.statuses;
    let good = ref 0 in
    Hashtbl.iter
      (fun _pad members ->
        let group = List.map (fun i -> wire_data.(i)) members in
        List.iter
          (fun i ->
            let word, _ = wire_data.(i) in
            if Addressing.addressed_with_noise levels ~group ~address:word
                 ~target:word
            then incr good)
          members)
      groups;
    float_of_int !good /. float_of_int n
  in
  Montecarlo.run (Montecarlo.spec (Montecarlo.fixed samples)) rng
    (Montecarlo.target one_draw)

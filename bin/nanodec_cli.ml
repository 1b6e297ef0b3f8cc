(* Command-line interface to the nanodec design flow.

   Subcommands:
   - evaluate   evaluate one decoder design and print the full report
   - sweep      sweep code families x lengths, print the table and winner
   - codes      print a code family's word sequence and transition spectrum
   - trace      print the fabrication trace (litho/doping passes) of a cave
   - figures    print the reproduction data of the paper's figures
   - headlines  print the paper's headline numbers, measured vs reported
   - check      run the property-based paper-proposition oracles *)

open Cmdliner
open Nanodec_codes
open Nanodec_numerics
open Nanodec_mspt
open Nanodec
module E = Nanodec_error
module Fault = Nanodec_fault.Fault

(* --- the one error boundary ---

   Every subcommand body runs inside [handle]: failures classified by
   [Errors.classify] (taxonomy errors, exhausted code searches, escaped
   injected faults, [Invalid_argument]/[Failure]) are rendered once, in
   one format, and exit with the taxonomy's stable per-kind code
   (invalid-input 2, timeout 3, worker-crash 4, degraded 5,
   internal 70).  Unclassifiable exceptions keep their backtrace and
   crash loudly — those are bugs, not user errors. *)

let handle f =
  try Errors.guard f with
  | E.Error t ->
    Format.eprintf "nanodec: %a@." E.pp t;
    exit (E.exit_code t)

(* --- shared argument parsers --- *)

let code_type_conv =
  let parse s =
    match Codebook.of_name s with
    | Some ct -> Ok ct
    | None ->
      Error (`Msg (Printf.sprintf "unknown code type %S (TC|GC|BGC|HC|AHC)" s))
  in
  Arg.conv (parse, Codebook.pp)

let code_type_arg =
  let doc = "Code family: TC, GC, BGC, HC or AHC." in
  Arg.(value & opt code_type_conv Codebook.Balanced_gray
       & info [ "c"; "code" ] ~docv:"CODE" ~doc)

let length_arg =
  let doc = "Code length M (doping regions per nanowire)." in
  Arg.(value & opt int 10 & info [ "m"; "length" ] ~docv:"M" ~doc)

let radix_arg =
  let doc = "Logic valence n (2 = binary, 3 = ternary, ...)." in
  Arg.(value & opt int 2 & info [ "n"; "radix" ] ~docv:"N" ~doc)

let wires_arg =
  let doc = "Nanowires per half cave." in
  Arg.(value & opt int 20 & info [ "w"; "wires" ] ~docv:"WIRES" ~doc)

let raw_bits_arg =
  let doc = "Raw crossbar density in crosspoints (default 16 kB = 131072)." in
  Arg.(value & opt int (16 * 1024 * 8) & info [ "raw-bits" ] ~docv:"BITS" ~doc)

let count_arg =
  let doc = "Number of code words to print." in
  Arg.(value & opt int 16 & info [ "k"; "count" ] ~docv:"COUNT" ~doc)

let setup_logging verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  let doc = "Enable debug logging." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let domains_arg =
  let doc =
    "Domains (OS-level parallelism) to evaluate with.  Defaults to \
     $(b,NANODEC_DOMAINS), then to the machine's recommended domain \
     count.  Results are bit-for-bit identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

module Telemetry = Nanodec_telemetry.Telemetry
module Run_ctx = Nanodec_parallel.Run_ctx

(* --- execution-context flags ---

   The one place the CLI's execution knobs live: a subcommand that does
   heavy work composes [Ctx_flags.term] and gets --domains, --seed,
   --mc-samples, --telemetry and --profile in one line, and
   [Ctx_flags.with_ctx] turns the parsed record into a [Run_ctx.t]
   (pool spawned, sink attached when requested), runs the command body,
   and only after the pool has joined — as the sink contract requires —
   writes the JSON export and prints the stderr profile.  Every flag is
   wall-clock/observability only except --seed and --mc-samples, which
   the context carries explicitly; stdout is bit-for-bit identical with
   and without --telemetry/--profile at every domain count. *)

module Ctx_flags = struct
  type t = {
    domains : int option;
    seed : int;
    mc_samples : int option;  (* None = Monte-Carlo check disabled *)
    telemetry : string option;
    profile : bool;
    fault_plan : string option;
    timeout : float option;
    no_degrade : bool;
    chunks : string;
    mc_method : string;
    rel_error : float option;
  }

  let term =
    let make domains seed mc_samples telemetry profile fault_plan timeout
        no_degrade chunks mc_method rel_error =
      {
        domains;
        seed;
        mc_samples;
        telemetry;
        profile;
        fault_plan;
        timeout;
        no_degrade;
        chunks;
        mc_method;
        rel_error;
      }
    in
    let seed_arg =
      let doc = "Monte-Carlo noise seed." in
      Arg.(value & opt int Run_ctx.default_seed
           & info [ "seed" ] ~docv:"SEED" ~doc)
    in
    let mc_samples_arg =
      let doc =
        "Monte-Carlo noise draws, where the command uses them (omit to \
         disable; estimates need at least 2).  The estimate runs on the \
         $(b,--domains) pool and is bit-for-bit independent of the \
         domain count."
      in
      Arg.(value & opt (some int) None
           & info [ "mc-samples" ] ~docv:"SAMPLES" ~doc)
    in
    let telemetry_arg =
      let doc =
        "Write the run's telemetry (span trees, counters, latency \
         histograms) to this JSON file."
      in
      Arg.(value & opt (some string) None
           & info [ "telemetry" ] ~docv:"FILE" ~doc)
    in
    let profile_arg =
      let doc =
        "Print a human-readable profile (spans by name with %-of-wall, \
         counters, histograms) to stderr after the run."
      in
      Arg.(value & flag & info [ "profile" ] ~doc)
    in
    let fault_plan_arg =
      let doc =
        "Deterministic fault-injection plan (chaos testing), e.g. \
         $(b,seed=7;pool.chunk:crash:p=0.05;mc.sample_batch:delay=2ms).  \
         Overrides $(b,NANODEC_FAULT_PLAN).  Successful runs stay \
         bit-for-bit identical to uninjected ones."
      in
      Arg.(value & opt (some string) None
           & info [ "fault-plan" ] ~docv:"PLAN" ~doc)
    in
    let timeout_arg =
      let doc =
        "Deadline in seconds for each parallel fan-out; on expiry the \
         command fails with the timeout exit code (3)."
      in
      Arg.(value & opt (some float) None
           & info [ "timeout" ] ~docv:"SECONDS" ~doc)
    in
    let no_degrade_arg =
      let doc =
        "Fail (exit code 5) instead of degrading to sequential \
         execution when injected faults exhaust the pool's retries."
      in
      Arg.(value & flag & info [ "no-degrade" ] ~doc)
    in
    let chunks_arg =
      let doc =
        "Monte-Carlo scheduling chunks: $(b,auto) (default) sizes chunks \
         and batches from the measured per-sample cost, $(b,N) forces \
         exactly N chunks.  Pure scheduling — estimates are bit-for-bit \
         identical either way."
      in
      Arg.(value & opt string "auto" & info [ "chunks" ] ~docv:"auto|N" ~doc)
    in
    let mc_method_arg =
      let doc =
        "Monte-Carlo sampling strategy: $(b,plain) (default), \
         $(b,antithetic), $(b,stratified)[:STRATA] or \
         $(b,importance)[:SHIFT].  Every strategy is an equally \
         unbiased estimator of the same yield; the variance-reduced \
         ones reach a given confidence interval in far fewer samples \
         on high-yield designs (see $(b,bench --mc))."
      in
      Arg.(value & opt string "plain"
           & info [ "mc-method" ] ~docv:"METHOD" ~doc)
    in
    let rel_error_arg =
      let doc =
        "Adaptive stopping: keep doubling the sample count (capped at \
         $(b,--mc-samples)) until the 95% confidence half-width falls \
         below REL times the estimate.  Must lie in (0, 0.5].  \
         Deterministic: the sample schedule depends only on the bounds, \
         so results stay bit-for-bit reproducible at every domain \
         count."
      in
      Arg.(value & opt (some float) None
           & info [ "rel-error" ] ~docv:"REL" ~doc)
    in
    Term.(const make $ domains_arg $ seed_arg $ mc_samples_arg
          $ telemetry_arg $ profile_arg $ fault_plan_arg $ timeout_arg
          $ no_degrade_arg $ chunks_arg $ mc_method_arg $ rel_error_arg)

  (* One range check per numeric knob, shared by every subcommand and
     — through the [Nanodec_error] validators — with the serve
     protocol, so both surfaces reject bad values identically. *)
  let validate flags =
    Option.iter
      (fun d ->
        E.check_int_range ~what:"--domains" ~min:1 ~max:64
          ~hint:"the pool caps at 64 domains" d)
      flags.domains;
    E.check_seed ~what:"--seed" flags.seed;
    Option.iter (E.check_mc_samples ~what:"--mc-samples") flags.mc_samples;
    Option.iter (E.check_timeout_s ~what:"--timeout") flags.timeout;
    ignore (E.parse_mc_method ~what:"--mc-method" flags.mc_method);
    Option.iter (E.check_rel_error ~what:"--rel-error") flags.rel_error

  let chunking_of_flags flags =
    match E.parse_chunks ~what:"--chunks" flags.chunks with
    | `Auto -> Run_ctx.Auto
    | `Fixed n -> Run_ctx.Fixed n

  let mc_method_of_flags flags =
    match E.parse_mc_method ~what:"--mc-method" flags.mc_method with
    | `Plain -> Run_ctx.Plain
    | `Antithetic -> Run_ctx.Antithetic
    | `Stratified k -> Run_ctx.Stratified k
    | `Importance f -> Run_ctx.Importance f

  (* [want_pool = false] keeps cheap closed-form commands from spawning
     domains they would never use; telemetry still works. *)
  let with_ctx ?(want_pool = true) flags f =
    validate flags;
    let chunking = chunking_of_flags flags in
    let sink =
      if flags.telemetry <> None || flags.profile then
        Some (Telemetry.create ())
      else None
    in
    (* --fault-plan beats the environment; either way the engine is
       built here so the [telemetry.flush] site below can probe it
       after the context is gone. *)
    let fault =
      match flags.fault_plan with
      | Some spec -> Some (Fault.create (Fault.parse_exn spec))
      | None -> Fault.of_env ()
    in
    let domains =
      if want_pool then
        Some
          (match flags.domains with
          | Some n -> n
          | None -> Nanodec_parallel.Pool.default_domains ())
      else None
    in
    let result =
      Run_ctx.with_ctx ?domains ~seed:flags.seed
        ~mc_samples:(Option.value flags.mc_samples ~default:0)
        ?telemetry:sink ?fault ?timeout_s:flags.timeout ~chunking
        ~mc_method:(mc_method_of_flags flags) ?rel_error:flags.rel_error
        ~degrade:(not flags.no_degrade) f
    in
    Option.iter
      (fun sink ->
        Fault.hit fault "telemetry.flush";
        Option.iter
          (fun path -> Telemetry.write_json sink ~path)
          flags.telemetry;
        if flags.profile then Format.eprintf "%a@." Telemetry.pp_summary sink)
      sink;
    result
end

let make_spec code_type code_length radix n_wires raw_bits =
  (* Same ranges as the serve protocol's [params] validation. *)
  E.check_int_range ~what:"--length" ~min:1 ~max:64 code_length;
  E.check_int_range ~what:"--radix" ~min:2 ~max:16 radix;
  E.check_int_range ~what:"--wires" ~min:1 ~max:10_000 n_wires;
  E.check_int_range ~what:"--raw-bits" ~min:1 ~max:1_000_000_000 raw_bits;
  let base = { Design.default_spec with Design.raw_bits } in
  Design.spec ~base ~radix ~n_wires ~code_type ~code_length ()

(* --- evaluate --- *)

let evaluate_cmd =
  let run verbose code_type code_length radix n_wires raw_bits flags =
    handle @@ fun () ->
    setup_logging verbose;
    match
      Codebook.validate_length ~radix ~length:code_length code_type
    with
    | Error msg -> E.fail (E.Invalid_input { what = msg; hint = None })
    | Ok () ->
      (* The pool is only worth spawning for the Monte-Carlo check; the
         closed-form report is sequential either way. *)
      let mc = flags.Ctx_flags.mc_samples <> None in
      Ctx_flags.with_ctx ~want_pool:mc flags @@ fun ctx ->
      let spec = make_spec code_type code_length radix n_wires raw_bits in
      let report = Design.evaluate spec in
      Format.printf "%a@." Design.pp_report report;
      if mc then (
        let analysis = Nanodec_crossbar.Cave.analyze spec.Design.cave in
        let seed = Run_ctx.seed ctx in
        let e =
          Nanodec_crossbar.Cave.mc_yield_window ~ctx
            (Rng.create ~seed)
            ~samples:(Run_ctx.mc_samples ctx)
            analysis
        in
        Printf.printf
          "monte-carlo yield check: %.9f +/- %.9f (n=%d, seed %d)\n"
          e.Montecarlo.mean e.Montecarlo.std_error e.Montecarlo.samples
          seed)
  in
  let term =
    Term.(const run $ verbose_arg $ code_type_arg $ length_arg $ radix_arg
          $ wires_arg $ raw_bits_arg $ Ctx_flags.term)
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Evaluate one decoder design (yield, area, Phi, Sigma).")
    term

(* --- sweep --- *)

let objective_conv =
  let parse = function
    | "yield" -> Ok Optimizer.Max_yield
    | "area" -> Ok Optimizer.Min_bit_area
    | "fabrication" -> Ok Optimizer.Min_fabrication
    | "variability" -> Ok Optimizer.Min_variability
    | s -> Error (`Msg (Printf.sprintf "unknown objective %S" s))
  in
  let print ppf o =
    Format.pp_print_string ppf
      (match o with
      | Optimizer.Max_yield -> "yield"
      | Optimizer.Min_bit_area -> "area"
      | Optimizer.Min_fabrication -> "fabrication"
      | Optimizer.Min_variability -> "variability")
  in
  Arg.conv (parse, print)

let sweep_cmd =
  let run verbose objective radix n_wires raw_bits flags =
    handle @@ fun () ->
    setup_logging verbose;
    let spec =
      Design.spec
        ~base:{ Design.default_spec with Design.raw_bits }
        ~radix ~n_wires ~code_type:Codebook.Balanced_gray ~code_length:10 ()
    in
    Ctx_flags.with_ctx flags (fun ctx ->
        let reports = Optimizer.sweep ~ctx ~spec () in
        print_endline Design.report_header;
        List.iter (fun r -> print_endline (Design.report_row r)) reports;
        let winner = Optimizer.best ~ctx ~spec objective in
        Format.printf "@.winner:@.%a@." Design.pp_report winner;
        print_endline "\npareto front (yield vs bit area):";
        List.iter
          (fun r -> print_endline ("  " ^ Design.report_row r))
          (Optimizer.pareto_yield_area reports))
  in
  let objective_arg =
    let doc = "Objective: yield, area, fabrication or variability." in
    Arg.(value & opt objective_conv Optimizer.Min_bit_area
         & info [ "o"; "objective" ] ~docv:"OBJ" ~doc)
  in
  let term =
    Term.(const run $ verbose_arg $ objective_arg $ radix_arg $ wires_arg
          $ raw_bits_arg $ Ctx_flags.term)
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep the design space and pick the best decoder.")
    term

(* --- codes --- *)

let codes_cmd =
  let run code_type code_length radix count =
    handle @@ fun () ->
    E.check_int_range ~what:"--count" ~min:1 ~max:1_000_000 count;
    match Codebook.validate_length ~radix ~length:code_length code_type with
    | Error msg -> E.fail (E.Invalid_input { what = msg; hint = None })
    | Ok () ->
      let omega = Codebook.space_size ~radix ~length:code_length code_type in
      Printf.printf "%s, n=%d, M=%d: %d code words\n"
        (Codebook.long_name code_type) radix code_length omega;
      let words =
        Codebook.sequence ~radix ~length:code_length ~count code_type
      in
      List.iteri
        (fun i w ->
          let transitions =
            if i = 0 then ""
            else
              Printf.sprintf "  (%d transitions)"
                (Word.hamming_distance (List.nth words (i - 1)) w)
          in
          Printf.printf "%3d  %s%s\n" i (Word.to_string w) transitions)
        words;
      let spectrum = Balanced_gray.transition_spectrum ~cyclic:false words in
      print_string "transition spectrum per digit:";
      Array.iter (Printf.printf " %d") spectrum;
      print_newline ()
  in
  let term =
    Term.(const run $ code_type_arg $ length_arg $ radix_arg $ count_arg)
  in
  Cmd.v
    (Cmd.info "codes" ~doc:"Print a code family's word sequence and spectrum.")
    term

(* --- trace --- *)

let trace_cmd =
  let run code_type code_length radix n_wires =
    handle @@ fun () ->
    match Codebook.validate_length ~radix ~length:code_length code_type with
    | Error msg -> E.fail (E.Invalid_input { what = msg; hint = None })
    | Ok () ->
      let pattern =
        Pattern.of_codebook ~radix ~length:code_length ~n_wires code_type
      in
      let levels =
        Nanodec_physics.Vt_levels.make ~radix ()
      in
      let h d = Nanodec_physics.Vt_levels.doping_of_digit levels d /. 1e18 in
      let d, s = Doping.of_pattern ~h pattern in
      Format.printf "pattern matrix P:@.%a@." Pattern.pp pattern;
      Format.printf "final doping D [1e18 cm^-3]:@.%a@." Fmatrix.pp
        (Fmatrix.map (fun x -> Float.round (x *. 100.) /. 100.) d);
      Format.printf "step doping S [1e18 cm^-3]:@.%a@." Fmatrix.pp
        (Fmatrix.map (fun x -> Float.round (x *. 100.) /. 100.) s);
      let passes = Process.passes_of_step_matrix s in
      Printf.printf "fabrication: Phi = %d lithography/doping passes\n"
        (List.length passes);
      List.iteri
        (fun i pass ->
          let regions =
            String.concat ","
              (List.filteri
                 (fun j _ -> pass.Process.mask.(j))
                 (List.init code_length string_of_int))
          in
          Printf.printf
            "  pass %2d: after wire %d, dose %+.2f e18 on regions {%s}\n"
            (i + 1) pass.Process.after_wire pass.Process.dose regions)
        passes;
      Format.printf "variability nu:@.%a@." Imatrix.pp
        (Variability.nu_matrix pattern);
      Printf.printf "||Sigma||_1 = %.1f sigma_T^2\n"
        (float_of_int (Imatrix.sum (Variability.nu_matrix pattern)));
      let estimate = Cost_model.of_pattern ~h pattern in
      Format.printf "fab economics: %a@." Cost_model.pp estimate;
      (match Feasibility.check (Fmatrix.scale 1e18 s) with
      | Ok () -> print_endline "dose plan: feasible within default limits"
      | Error violations ->
        Printf.printf "dose plan: %d violations\n" (List.length violations);
        List.iter
          (fun violation ->
            Format.printf "  %a@." Feasibility.pp_violation violation)
          violations)
  in
  let wires_small =
    let doc = "Nanowires in the traced half cave." in
    Arg.(value & opt int 4 & info [ "w"; "wires" ] ~docv:"WIRES" ~doc)
  in
  let term =
    Term.(const run $ code_type_arg $ length_arg $ radix_arg $ wires_small)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print the full fabrication trace (P, D, S, passes, Sigma).")
    term

(* --- figures / headlines --- *)

let figures_cmd =
  let run which flags =
    handle @@ fun () ->
    (* fig5/fig6 are closed-form and cheap; the design-evaluation grids
       (fig7, fig8, multivalued) fan out across the pool. *)
    let pooled =
      match which with
      | "fig7" | "fig8" | "multivalued" -> true
      | _ -> false
    in
    Ctx_flags.with_ctx ~want_pool:pooled flags @@ fun ctx ->
    match which with
    | "fig5" ->
      List.iter
        (fun (p : Figures.fig5_point) ->
          Printf.printf "n=%d %s M=%d Phi=%d\n" p.radix
            (Codebook.name p.code_type) p.code_length p.phi)
        (Figures.fig5 ())
    | "fig6" ->
      List.iter
        (fun (s : Figures.fig6_surface) ->
          Printf.printf "%s L=%d mean_nu=%.2f max_std=%.2f\n"
            (Codebook.name s.code_type) s.code_length s.mean_nu s.max_std)
        (Figures.fig6 ())
    | "fig7" ->
      List.iter
        (fun (p : Figures.fig7_point) ->
          Printf.printf "%s M=%d yield=%.3f\n" (Codebook.name p.code_type)
            p.code_length p.crossbar_yield)
        (Figures.fig7 ~ctx ())
    | "fig8" ->
      List.iter
        (fun (p : Figures.fig8_point) ->
          Printf.printf "%s M=%d bit_area=%.1f\n" (Codebook.name p.code_type)
            p.code_length p.bit_area)
        (Figures.fig8 ~ctx ())
    | "multivalued" ->
      List.iter
        (fun (p : Figures.multivalued_point) ->
          Printf.printf "n=%d %s M=%d Phi=%d yield=%.4f bit_area=%.1f\n"
            p.radix (Codebook.name p.code_type) p.code_length p.phi
            p.crossbar_yield p.bit_area)
        (Figures.multivalued_designs ~ctx ())
    | s ->
      E.invalid_inputf ~hint:"valid figures: fig5, fig6, fig7, fig8, multivalued"
        "unknown figure %S" s
  in
  let which_arg =
    let doc = "Which figure: fig5, fig6, fig7, fig8 or multivalued." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE" ~doc)
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Print one figure's reproduction data.")
    Term.(const run $ which_arg $ Ctx_flags.term)

let headlines_cmd =
  let run () = Format.printf "%a@." Figures.pp_headlines (Figures.headlines ()) in
  Cmd.v
    (Cmd.info "headlines"
       ~doc:"Print the paper's headline numbers, measured vs reported.")
    Term.(const run $ const ())

(* --- export --- *)

let export_cmd =
  let run dir =
    handle @@ fun () ->
    Export.write_all ~dir;
    Printf.printf
      "wrote fig5..fig8 + sweep CSVs and fig5/fig7/fig8 gnuplot scripts to %s/\n"
      dir
  in
  let dir_arg =
    let doc = "Output directory for CSV files." in
    Arg.(value & opt string "results" & info [ "d"; "dir" ] ~docv:"DIR" ~doc)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export every reproduction dataset as CSV.")
    Term.(const run $ dir_arg)

(* --- ablate --- *)

let ablate_cmd =
  let run flags =
    handle @@ fun () ->
    Ctx_flags.with_ctx flags (fun ctx ->
        List.iter
          (fun series -> Format.printf "%a@.@." Ablation.pp series)
          (Ablation.all ~ctx ()))
  in
  Cmd.v
    (Cmd.info "ablate"
       ~doc:"Sweep platform parameters and check the BGC-beats-TC conclusion.")
    Term.(const run $ Ctx_flags.term)

(* --- baseline --- *)

let baseline_cmd =
  let run omega group_size =
    handle @@ fun () ->
    let a = Nanodec_crossbar.Stochastic.analyze ~omega ~group_size in
    Format.printf "%a@." Nanodec_crossbar.Stochastic.pp a;
    Printf.printf "stochastic loss vs deterministic MSPT: %.1f%%\n"
      (100. *. Nanodec_crossbar.Stochastic.stochastic_loss ~omega ~group_size)
  in
  let omega_arg =
    let doc = "Code space size." in
    Arg.(value & opt int 16 & info [ "omega" ] ~docv:"OMEGA" ~doc)
  in
  let group_arg =
    let doc = "Wires per contact group." in
    Arg.(value & opt int 16 & info [ "g"; "group" ] ~docv:"G" ~doc)
  in
  Cmd.v
    (Cmd.info "baseline"
       ~doc:"Compare against the stochastic-assembly decoder baseline.")
    Term.(const run $ omega_arg $ group_arg)

(* --- memory --- *)

let memory_cmd =
  let run code_type code_length raw_bits seed =
    handle @@ fun () ->
    E.check_seed ~what:"--seed" seed;
    E.check_int_range ~what:"--raw-bits" ~min:1 ~max:1_000_000_000 raw_bits;
    match Codebook.validate_length ~radix:2 ~length:code_length code_type with
    | Error msg -> E.fail (E.Invalid_input { what = msg; hint = None })
    | Ok () ->
      let cave =
        { Nanodec_crossbar.Cave.default_config with
          Nanodec_crossbar.Cave.code_type; code_length }
      in
      let config = { Nanodec_crossbar.Array_sim.cave; raw_bits } in
      let memory =
        Nanodec_crossbar.Memory.create (Rng.create ~seed) config
      in
      let remap = Nanodec_crossbar.Remap.build memory in
      Printf.printf
        "sampled crossbar: %dx%d, %d usable crosspoints (%.1f%% yield)\n"
        (Nanodec_crossbar.Memory.n_rows memory)
        (Nanodec_crossbar.Memory.n_cols memory)
        (Nanodec_crossbar.Memory.usable_crosspoints memory)
        (100. *. Nanodec_crossbar.Memory.realized_yield memory);
      Printf.printf "logical capacity: %d bytes (%d bytes under SECDED)\n"
        (Nanodec_crossbar.Remap.capacity_bytes remap)
        (Nanodec_crossbar.Ecc.protected_capacity_bytes remap);
      let payload = "nanodec memory self-test" in
      Nanodec_crossbar.Ecc.store remap payload;
      let data, corrected, uncorrectable =
        Nanodec_crossbar.Ecc.load remap ~length:(String.length payload)
      in
      Printf.printf
        "ECC round trip: %s (corrected %d, uncorrectable %d)\n"
        (if String.equal data payload then "ok" else "CORRUPT")
        corrected uncorrectable
  in
  let seed_arg =
    let doc = "Defect-map sampling seed." in
    Arg.(value & opt int 2009 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let term =
    Term.(const run $ code_type_arg $ length_arg $ raw_bits_arg $ seed_arg)
  in
  Cmd.v
    (Cmd.info "memory"
       ~doc:"Sample a defective crossbar memory and self-test the remap/ECC stack.")
    term

(* --- check --- *)

let check_cmd =
  let run seed count names_only =
    handle @@ fun () ->
    Option.iter (E.check_seed ~what:"--seed") seed;
    Option.iter
      (fun c -> E.check_int_range ~what:"--count" ~min:1 ~max:1_000_000 c)
      count;
    let open Nanodec_proptest in
    if names_only then (
      List.iter (fun p -> print_endline (Property.name p)) Oracles.all;
      exit 0);
    let reports = Property.run_suite ?seed ?count Oracles.all in
    List.iter (fun r -> Format.printf "%a@." Property.pp_report r) reports;
    let failures =
      List.filter
        (fun r ->
          match r.Property.outcome with
          | Property.Fail _ -> true
          | Property.Pass _ -> false)
        reports
    in
    if failures = [] then
      Printf.printf "check: all %d properties passed (seed %d)\n"
        (List.length reports)
        (Property.effective_seed seed)
    else (
      Printf.printf "check: %d of %d properties FAILED\n" (List.length failures)
        (List.length reports);
      exit 1)
  in
  let seed_arg =
    let doc =
      "Master seed for the property run (also readable from \
       $(b,PROPTEST_SEED)).  Failing cases print the exact seed that \
       reproduces them."
    in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let count_arg =
    let doc = "Random cases per property (default 100, or $(b,PROPTEST_COUNT))." in
    Arg.(value & opt (some int) None & info [ "count" ] ~docv:"COUNT" ~doc)
  in
  let list_arg =
    let doc = "Only list the property names, without running them." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run the paper-proposition oracles as a correctness gate.")
    Term.(const run $ seed_arg $ count_arg $ list_arg)

(* --- serve / client --- *)

module Serve = Nanodec_serve

let address_of ~socket ~port =
  match (socket, port) with
  | Some path, None -> `Unix path
  | None, Some p -> `Tcp p
  | Some _, Some _ ->
    E.invalid_inputf "--socket and --port are mutually exclusive"
  | None, None ->
    E.invalid_inputf ~hint:"e.g. --socket /tmp/nanodec.sock or --port 7209"
      "serve needs --socket PATH or --port N"

let socket_arg =
  let doc = "Unix-domain socket path to listen on / connect to." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "Loopback TCP port to listen on / connect to (0 = any free)." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let serve_cmd =
  let run verbose socket port cache_capacity no_cache max_inflight max_queue
      batch_window_ms max_batch idle_timeout cache_file snapshot_interval
      flags =
    handle @@ fun () ->
    setup_logging verbose;
    let address = address_of ~socket ~port in
    E.check_int_range ~what:"--cache-capacity" ~min:1 ~max:1_000_000
      ~hint:"use --no-cache to disable caching instead" cache_capacity;
    E.check_int_range ~what:"--max-inflight" ~min:1 ~max:1024 max_inflight;
    E.check_int_range ~what:"--max-queue" ~min:1 ~max:1_000_000 max_queue;
    if not (batch_window_ms >= 0. && batch_window_ms < infinity) then
      E.invalid_inputf ~hint:"0 turns batch fusion off"
        "--batch-window-ms must be a finite time >= 0 (got %g)"
        batch_window_ms;
    E.check_int_range ~what:"--max-batch" ~min:2 ~max:4096 max_batch;
    Option.iter (E.check_timeout_s ~what:"--idle-timeout") idle_timeout;
    E.check_timeout_s ~what:"--snapshot-interval" snapshot_interval;
    (* A warm daemon promotes little (a hit allocates only short-lived
       minor-heap data), so the major GC paces slowly and the default
       space overhead lets floating garbage grow the heap by about a
       megabyte.  A tighter target keeps the resident footprint at the
       cold-start size for a few dozen extra major cycles per 100k
       hits. *)
    Gc.set { (Gc.get ()) with Gc.space_overhead = 80 };
    Ctx_flags.with_ctx flags @@ fun ctx ->
    let state =
      Serve.Protocol.make_state ~cache_enabled:(not no_cache)
        ~cache_capacity ~base:ctx ()
    in
    let server =
      Serve.Server.create ~state ~max_inflight ~max_queue
        ~batch_window_s:(batch_window_ms /. 1000.) ~max_batch
        ?idle_timeout_s:idle_timeout ?cache_file
        ~snapshot_interval_s:snapshot_interval address
    in
    (match Serve.Server.address server with
    | `Unix path -> Format.eprintf "nanodec serve: listening on %s@." path
    | `Tcp p -> Format.eprintf "nanodec serve: listening on 127.0.0.1:%d@." p);
    Serve.Server.serve server
  in
  let cache_capacity_arg =
    let doc = "Artifact-cache capacity (entries, across all kinds)." in
    Arg.(value & opt int 256 & info [ "cache-capacity" ] ~docv:"N" ~doc)
  in
  let no_cache_arg =
    let doc = "Disable the artifact cache: every request executes cold." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let max_inflight_arg =
    let doc = "Worker threads executing requests concurrently." in
    Arg.(value
         & opt int Serve.Server.default_max_inflight
         & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let max_queue_arg =
    let doc =
      "Requests allowed to wait beyond the workers; excess load is \
       shed with structured $(i,overloaded) errors (exit code 6 \
       semantics on the wire)."
    in
    Arg.(value
         & opt int Serve.Server.default_max_queue
         & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let batch_window_ms_arg =
    let doc =
      "Coalesce concurrent cold Monte-Carlo requests for up to MS \
       milliseconds and execute each batch as one fused kernel \
       mega-run (responses stay byte-identical to unbatched \
       execution; serial clients never wait — a lone request flushes \
       immediately).  0 disables batch fusion."
    in
    Arg.(value & opt float 2.0 & info [ "batch-window-ms" ] ~docv:"MS" ~doc)
  in
  let max_batch_arg =
    let doc = "Most requests fused into one batch (flushes when full)." in
    Arg.(value & opt int 32 & info [ "max-batch" ] ~docv:"N" ~doc)
  in
  let idle_timeout_arg =
    let doc =
      "Close connections idle (or drip-feeding one request line) for \
       more than SECONDS.  Off by default."
    in
    Arg.(value
         & opt (some float) None
         & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let cache_file_arg =
    let doc =
      "Persist the artifact cache to PATH (checksummed snapshots, \
       atomic replace): restored on startup, written every \
       $(b,--snapshot-interval) seconds and on graceful shutdown, so \
       warm-cache hits survive restarts and crashes.  A corrupt \
       snapshot is ignored with a warning."
    in
    Arg.(value
         & opt (some string) None
         & info [ "cache-file" ] ~docv:"PATH" ~doc)
  in
  let snapshot_interval_arg =
    let doc = "Seconds between cache snapshots (with --cache-file)." in
    Arg.(value
         & opt float 5.0
         & info [ "snapshot-interval" ] ~docv:"SECONDS" ~doc)
  in
  let term =
    Term.(const run $ verbose_arg $ socket_arg $ port_arg $ cache_capacity_arg
          $ no_cache_arg $ max_inflight_arg $ max_queue_arg
          $ batch_window_ms_arg $ max_batch_arg
          $ idle_timeout_arg $ cache_file_arg $ snapshot_interval_arg
          $ Ctx_flags.term)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the cached design-evaluation daemon (JSON lines over a socket).")
    term

let client_cmd =
  let run socket port timeout requests =
    handle @@ fun () ->
    let address = address_of ~socket ~port in
    Option.iter (E.check_timeout_s ~what:"--timeout") timeout;
    Serve.Client.with_connection ?timeout_s:timeout address @@ fun conn ->
    let send line =
      if String.trim line <> "" then
        print_endline (Serve.Client.request conn line)
    in
    if requests <> [] then List.iter send requests
    else
      try
        while true do
          send (input_line stdin)
        done
      with End_of_file -> ()
  in
  let requests_arg =
    let doc =
      "Request lines to send (one JSON object each).  Without any, \
       requests are read from stdin, one per line."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"REQUEST" ~doc)
  in
  let timeout_arg =
    let doc =
      "Give up on connecting or on an unfinished response after \
       SECONDS (exit code 3).  Without it, a wedged daemon blocks \
       forever."
    in
    Arg.(value
         & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send requests to a running serve daemon and print the responses.")
    Term.(const run $ socket_arg $ port_arg $ timeout_arg $ requests_arg)

let main_cmd =
  let doc = "MSPT nanowire-decoder design flow (DAC 2009 reproduction)." in
  Cmd.group
    (Cmd.info "nanodec" ~version:"1.0.0" ~doc)
    [ evaluate_cmd; sweep_cmd; codes_cmd; trace_cmd; figures_cmd; headlines_cmd;
      export_cmd; ablate_cmd; baseline_cmd; memory_cmd; check_cmd; serve_cmd;
      client_cmd ]

let () = exit (Cmd.eval main_cmd)

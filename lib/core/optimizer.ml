open Nanodec_codes

let log_src = Logs.Src.create "nanodec.optimizer" ~doc:"Design-space search"

module Log = (val Logs.src_log log_src)

type objective = Max_yield | Min_bit_area | Min_fabrication | Min_variability

type candidate = {
  code_type : Codebook.t;
  code_length : int;
}

let default_candidates =
  List.concat_map
    (fun code_type ->
      List.map (fun code_length -> { code_type; code_length }) [ 4; 6; 8; 10; 12 ])
    Codebook.all_types

let valid ~spec { code_type; code_length } =
  let radix = spec.Design.cave.Nanodec_crossbar.Cave.radix in
  match Codebook.validate_length ~radix ~length:code_length code_type with
  | Ok () -> true
  | Error _ -> false

module Telemetry = Nanodec_telemetry.Telemetry
module Run_ctx = Nanodec_parallel.Run_ctx

let sweep ?ctx ?(spec = Design.default_spec)
    ?(candidates = default_candidates) () =
  let ctx = Option.value ctx ~default:Run_ctx.sequential in
  let tel = Run_ctx.telemetry ctx in
  let evaluate { code_type; code_length } =
    Telemetry.with_span tel "optimizer.evaluate" @@ fun () ->
    match
      Design.evaluate (Design.spec ~base:spec ~code_type ~code_length ())
    with
    | report -> Ok report
    | exception
        ( Nanodec_codes.Balanced_gray.Search_exhausted
        | Nanodec_codes.Arranged_hot.Search_exhausted ) ->
      (* Exact code-construction searches are bounded; drop candidates
         whose space is out of reach rather than aborting the sweep. *)
      Error { code_type; code_length }
  in
  (* Candidates evaluate across the pool; the outcome list keeps the
     candidate order, so the sweep is domain-count invariant.  Skip
     warnings are logged here, after the join, to keep the chunk bodies
     free of shared logging state. *)
  Telemetry.with_span tel "optimizer.sweep" @@ fun () ->
  let live = List.filter (valid ~spec) candidates in
  Telemetry.count tel "optimizer.candidates" (List.length live);
  Run_ctx.map_list ctx evaluate live
  |> List.filter_map (function
       | Ok report -> Some report
       | Error { code_type; code_length } ->
         Log.warn (fun m ->
             m "skipping %s M=%d: exact construction out of search range"
               (Codebook.name code_type) code_length);
         None)

let score objective (r : Design.report) =
  match objective with
  | Max_yield -> -.r.Design.crossbar_yield
  | Min_bit_area -> r.Design.bit_area
  | Min_fabrication ->
    (* Primary: Φ; secondary: yield (negated, scaled below 1 per unit). *)
    float_of_int r.Design.phi -. (r.Design.crossbar_yield /. 2.)
  | Min_variability ->
    r.Design.sigma_norm1 -. (r.Design.crossbar_yield /. 1000.)

let best ?ctx ?spec ?candidates objective =
  match sweep ?ctx ?spec ?candidates () with
  | [] -> invalid_arg "Optimizer.best: no valid candidate"
  | first :: rest ->
    let winner =
      List.fold_left
        (fun acc r ->
          if score objective r < score objective acc then r else acc)
        first rest
    in
    Log.info (fun m ->
        m "winner: %s M=%d (Y^2=%.3f, %.1f nm^2/bit)"
          (Codebook.name
             winner.Design.spec.Design.cave.Nanodec_crossbar.Cave.code_type)
          winner.Design.spec.Design.cave.Nanodec_crossbar.Cave.code_length
          winner.Design.crossbar_yield winner.Design.bit_area);
    winner

let dominates (a : Design.report) (b : Design.report) =
  a.Design.crossbar_yield >= b.Design.crossbar_yield
  && a.Design.bit_area <= b.Design.bit_area
  && (a.Design.crossbar_yield > b.Design.crossbar_yield
     || a.Design.bit_area < b.Design.bit_area)

let pareto_yield_area reports =
  let non_dominated r = not (List.exists (fun other -> dominates other r) reports) in
  List.sort
    (fun a b -> Float.compare a.Design.bit_area b.Design.bit_area)
    (List.filter non_dominated reports)

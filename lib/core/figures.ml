open Nanodec_codes
open Nanodec_numerics
open Nanodec_mspt

(* Fig. 5 *)

type fig5_point = {
  radix : int;
  code_type : Codebook.t;
  code_length : int;
  phi : int;
}

let fig5 ?(n_wires = 10) () =
  let point radix code_type =
    let code_length = Codebook.minimal_length ~radix ~min_size:n_wires code_type in
    let pattern = Pattern.of_codebook ~radix ~length:code_length ~n_wires code_type in
    { radix; code_type; code_length; phi = Complexity.total pattern }
  in
  List.concat_map
    (fun radix -> [ point radix Codebook.Tree; point radix Codebook.Gray ])
    [ 2; 3; 4 ]

(* Fig. 6 *)

type fig6_surface = {
  code_type : Codebook.t;
  code_length : int;
  normalized_std : Fmatrix.t;
  mean_nu : float;
  max_std : float;
}

let fig6_surface ~radix ~n_wires code_type code_length =
  let pattern =
    Pattern.of_codebook ~radix ~length:code_length ~n_wires code_type
  in
  let nu = Variability.nu_matrix pattern in
  let normalized_std = Variability.normalized_std_matrix ~nu pattern in
  {
    code_type;
    code_length;
    normalized_std;
    mean_nu = Variability.average_nu ~nu pattern;
    max_std = Fmatrix.max_entry normalized_std;
  }

let fig6 ?(n_wires = 20) () =
  List.concat_map
    (fun ct ->
      [ fig6_surface ~radix:2 ~n_wires ct 8; fig6_surface ~radix:2 ~n_wires ct 10 ])
    [ Codebook.Tree; Codebook.Gray; Codebook.Balanced_gray ]

let fig6_multivalued ?(n_wires = 20) ~radix () =
  let families =
    let base = [ Codebook.Tree; Codebook.Gray ] in
    let length = Codebook.minimal_length ~radix ~min_size:n_wires Codebook.Tree in
    let omega = Codebook.space_size ~radix ~length Codebook.Tree in
    if omega <= 32 then base @ [ Codebook.Balanced_gray ] else base
  in
  List.map
    (fun ct ->
      let length = Codebook.minimal_length ~radix ~min_size:n_wires ct in
      fig6_surface ~radix ~n_wires ct length)
    families

(* Fig. 7 / Fig. 8 *)

type fig7_point = {
  code_type : Codebook.t;
  code_length : int;
  crossbar_yield : float;
}

let evaluate_design ~spec code_type code_length =
  Design.evaluate (Design.spec ~base:spec ~code_type ~code_length ())

let fig7_candidates =
  List.concat
    [
      List.map (fun m -> (Codebook.Tree, m)) [ 6; 8; 10 ];
      List.map (fun m -> (Codebook.Balanced_gray, m)) [ 6; 8; 10 ];
      List.map (fun m -> (Codebook.Hot, m)) [ 4; 6; 8 ];
      List.map (fun m -> (Codebook.Arranged_hot, m)) [ 4; 6; 8 ];
    ]

module Telemetry = Nanodec_telemetry.Telemetry
module Run_ctx = Nanodec_parallel.Run_ctx

(* Every figure generator follows the same shape: resolve pool and sink
   from the execution context, wrap the
   whole figure in a span, fan the points out in candidate order. *)
let figure_points ?ctx name point candidates =
  let ctx = Option.value ctx ~default:Run_ctx.sequential in
  Telemetry.with_span (Run_ctx.telemetry ctx) name @@ fun () ->
  Run_ctx.map_list ctx point candidates

let fig7 ?ctx ?(spec = Design.default_spec) () =
  let point (code_type, code_length) =
    let r = evaluate_design ~spec code_type code_length in
    { code_type; code_length; crossbar_yield = r.Design.crossbar_yield }
  in
  figure_points ?ctx "figures.fig7" point fig7_candidates

type fig8_point = {
  code_type : Codebook.t;
  code_length : int;
  bit_area : float;
}

let fig8 ?ctx ?(spec = Design.default_spec) () =
  let point (code_type, code_length) =
    let r = evaluate_design ~spec code_type code_length in
    { code_type; code_length; bit_area = r.Design.bit_area }
  in
  let candidates =
    List.concat_map
      (fun ct -> List.map (fun m -> (ct, m)) [ 6; 8; 10 ])
      Codebook.all_types
  in
  figure_points ?ctx "figures.fig8" point candidates

(* Extension: multi-valued designs *)

type multivalued_point = {
  radix : int;
  code_type : Codebook.t;
  code_length : int;
  crossbar_yield : float;
  bit_area : float;
  phi : int;
}

let multivalued_designs ?ctx ?(spec = Design.default_spec) () =
  let point (radix, code_type, code_length) =
    let design =
      Design.spec ~base:spec ~radix ~code_type ~code_length ()
    in
    let r = Design.evaluate design in
    {
      radix;
      code_type;
      code_length;
      crossbar_yield = r.Design.crossbar_yield;
      bit_area = r.Design.bit_area;
      phi = r.Design.phi;
    }
  in
  let n_wires = spec.Design.cave.Nanodec_crossbar.Cave.n_wires in
  let candidates =
    List.concat_map
      (fun radix ->
        let minimal =
          Codebook.minimal_length ~radix ~min_size:n_wires Codebook.Tree
        in
        List.concat_map
          (fun code_length ->
            [ (radix, Codebook.Tree, code_length);
              (radix, Codebook.Gray, code_length) ])
          [ minimal; minimal + 2 ])
      [ 2; 3; 4 ]
  in
  figure_points ?ctx "figures.multivalued" point candidates

(* Headlines *)

type headlines = {
  gray_step_saving_ternary : float;
  tree_multivalued_overhead : float;
  variability_saving : float;
  yield_gain_length_tc : float;
  yield_gain_bgc_vs_tc : float;
  yield_gain_ahc_vs_hc : float;
  area_saving_tc_length : float;
  density_gain_bgc_vs_tc : float;
  area_saving_ahc_vs_hc : float;
  best_bit_area : float * Codebook.t * int;
}

let average_nu_of code_type code_length =
  Variability.average_nu
    (Pattern.of_codebook ~radix:2 ~length:code_length ~n_wires:20 code_type)

let headlines ?(spec = Design.default_spec) () =
  let fig5_points = fig5 () in
  let phi radix ct =
    match
      List.find_opt
        (fun (p : fig5_point) -> p.radix = radix && p.code_type = ct)
        fig5_points
    with
    | Some (p : fig5_point) -> float_of_int p.phi
    | None -> invalid_arg "Figures.headlines: missing fig5 point"
  in
  let design ct m = evaluate_design ~spec ct m in
  let y ct m = (design ct m).Design.crossbar_yield in
  let bit ct m = (design ct m).Design.bit_area in
  let saving from_value to_value = (from_value -. to_value) /. from_value in
  let best_bit_area =
    let candidates =
      List.concat_map
        (fun ct -> List.map (fun m -> (bit ct m, ct, m)) [ 6; 8; 10 ])
        Codebook.all_types
    in
    match List.sort Stdlib.compare candidates with
    | best :: _ -> best
    | [] -> assert false
  in
  {
    gray_step_saving_ternary = saving (phi 3 Codebook.Tree) (phi 3 Codebook.Gray);
    tree_multivalued_overhead =
      (phi 3 Codebook.Tree /. phi 2 Codebook.Tree) -. 1.;
    variability_saving =
      saving (average_nu_of Codebook.Tree 8)
        (average_nu_of Codebook.Balanced_gray 8);
    yield_gain_length_tc = y Codebook.Tree 10 -. y Codebook.Tree 6;
    yield_gain_bgc_vs_tc =
      (y Codebook.Balanced_gray 8 /. y Codebook.Tree 8) -. 1.;
    yield_gain_ahc_vs_hc = (y Codebook.Arranged_hot 8 /. y Codebook.Hot 8) -. 1.;
    area_saving_tc_length = saving (bit Codebook.Tree 6) (bit Codebook.Tree 10);
    density_gain_bgc_vs_tc =
      saving (bit Codebook.Tree 8) (bit Codebook.Balanced_gray 8);
    area_saving_ahc_vs_hc =
      saving (bit Codebook.Hot 6) (bit Codebook.Arranged_hot 6);
    best_bit_area;
  }

let pp_headlines ppf h =
  let pct x = 100. *. x in
  let area, ct, m = h.best_bit_area in
  Format.fprintf ppf
    "@[<v>GC saves %.0f%% fabrication steps vs TC (ternary)      [paper: 17%%]@,\
     ternary TC costs %.0f%% more steps than binary TC    [paper: ~20%%]@,\
     BGC reduces average variability by %.0f%% vs TC (M=8) [paper: 18%%]@,\
     TC yield gains %.0f points from M=6 to M=10          [paper: ~40]@,\
     BGC yields %.0f%% more than TC at M=8                 [paper: 42%%]@,\
     AHC yields %.0f%% more than HC at M=8                 [paper: 19%%]@,\
     TC bit area shrinks %.0f%% from M=6 to M=10           [paper: 51%%]@,\
     BGC is %.0f%% denser than TC at M=8                   [paper: ~30%%]@,\
     AHC bit area is %.0f%% below HC at M=6                [paper: 13%%]@,\
     best bit area: %.0f nm^2 (%s, M=%d)                 [paper: 169 nm^2, BGC, M=10]@]"
    (pct h.gray_step_saving_ternary)
    (pct h.tree_multivalued_overhead)
    (pct h.variability_saving)
    (pct h.yield_gain_length_tc)
    (pct h.yield_gain_bgc_vs_tc)
    (pct h.yield_gain_ahc_vs_hc)
    (pct h.area_saving_tc_length)
    (pct h.density_gain_bgc_vs_tc)
    (pct h.area_saving_ahc_vs_hc)
    area (Codebook.name ct) m

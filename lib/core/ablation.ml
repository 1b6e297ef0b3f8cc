open Nanodec_codes
open Nanodec_crossbar

type point = {
  value : float;
  tree_yield : float;
  bgc_yield : float;
}

type series = {
  parameter : string;
  unit_name : string;
  points : point list;
}

let crossbar_yield cave =
  (Array_sim.evaluate { Array_sim.cave; raw_bits = 16 * 1024 * 8 })
    .Array_sim.crossbar_yield

module Telemetry = Nanodec_telemetry.Telemetry
module Run_ctx = Nanodec_parallel.Run_ctx

let sweep ?ctx ~parameter ~unit_name ~values ~apply () =
  let ctx = Option.value ctx ~default:Run_ctx.sequential in
  let base = { Cave.default_config with Cave.code_length = 8 } in
  let points =
    Telemetry.with_span (Run_ctx.telemetry ctx) ("ablation." ^ parameter)
    @@ fun () ->
    Run_ctx.map_list ctx
      (fun value ->
        let at code_type =
          crossbar_yield (apply { base with Cave.code_type } value)
        in
        {
          value;
          tree_yield = at Codebook.Tree;
          bgc_yield = at Codebook.Balanced_gray;
        })
      values
  in
  { parameter; unit_name; points }

let sigma_t ?ctx () =
  sweep ?ctx ~parameter:"sigma_T" ~unit_name:"V"
    ~values:[ 0.01; 0.03; 0.05; 0.08; 0.12 ]
    ~apply:(fun c sigma_t -> { c with Cave.sigma_t })
    ()

let sigma_base ?ctx () =
  sweep ?ctx ~parameter:"sigma_0" ~unit_name:"V"
    ~values:[ 0.0; 0.05; 0.10; 0.15; 0.20 ]
    ~apply:(fun c v -> { c with Cave.sigma_base = v })
    ()

let margin ?ctx () =
  sweep ?ctx ~parameter:"window margin" ~unit_name:"x separation"
    ~values:[ 0.20; 0.30; 0.42; 0.50 ]
    ~apply:(fun c margin_fraction -> { c with Cave.margin_fraction })
    ()

let overlay ?ctx () =
  sweep ?ctx ~parameter:"pad overlay" ~unit_name:"nm"
    ~values:[ 0.; 8.; 16.; 24.; 28. ]
    ~apply:(fun c v ->
      { c with Cave.rules = { c.Cave.rules with Geometry.pad_overlap = v } })
    ()

let cave_wires ?ctx () =
  sweep ?ctx ~parameter:"wires per half cave" ~unit_name:"wires"
    ~values:[ 10.; 20.; 30.; 40.; 60. ]
    ~apply:(fun c v -> { c with Cave.n_wires = int_of_float v })
    ()

let all ?ctx () =
  [ sigma_t ?ctx (); sigma_base ?ctx (); margin ?ctx ();
    overlay ?ctx (); cave_wires ?ctx () ]

let conclusion_holds series =
  List.for_all (fun p -> p.bgc_yield >= p.tree_yield -. 1e-9) series.points

let pp ppf series =
  Format.fprintf ppf "@[<v>%s [%s]:@," series.parameter series.unit_name;
  List.iter
    (fun p ->
      Format.fprintf ppf "  %8.3g   TC %5.1f%%   BGC %5.1f%%   (BGC/TC %.2fx)@,"
        p.value (100. *. p.tree_yield) (100. *. p.bgc_yield)
        (if p.tree_yield > 0. then p.bgc_yield /. p.tree_yield else infinity))
    series.points;
  Format.fprintf ppf "  conclusion (BGC >= TC) holds everywhere: %b@]"
    (conclusion_holds series)

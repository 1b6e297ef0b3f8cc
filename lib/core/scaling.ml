open Nanodec_codes
open Nanodec_crossbar

type node = {
  label : string;
  litho_pitch : float;
  nanowire_pitch : float;
}

let default_nodes =
  [
    { label = "65nm-class"; litho_pitch = 65.; nanowire_pitch = 10. };
    { label = "45nm-class"; litho_pitch = 45.; nanowire_pitch = 10. };
    { label = "32nm-class (paper)"; litho_pitch = 32.; nanowire_pitch = 10. };
    { label = "22nm-class"; litho_pitch = 22.; nanowire_pitch = 10. };
  ]

type point = {
  node : node;
  raw_bits : int;
  best_code : Codebook.t;
  best_length : int;
  best_bit_area : float;
  crossbar_yield : float;
}

let spec_for node raw_bits =
  let base_rules = Geometry.default_rules in
  (* Overlay alignment scales with the node; pads keep the 1.5 PL rule. *)
  let rules =
    {
      base_rules with
      Geometry.litho_pitch = node.litho_pitch;
      pad_overlap = 0.75 *. node.litho_pitch;
      nanowire_pitch = node.nanowire_pitch;
    }
  in
  {
    Design.cave = { Cave.default_config with Cave.rules };
    raw_bits;
  }

module Telemetry = Nanodec_telemetry.Telemetry
module Run_ctx = Nanodec_parallel.Run_ctx

let best_point ?ctx node raw_bits =
  let spec = spec_for node raw_bits in
  let report = Optimizer.best ?ctx ~spec Optimizer.Min_bit_area in
  let cave = report.Design.spec.Design.cave in
  {
    node;
    raw_bits;
    best_code = cave.Cave.code_type;
    best_length = cave.Cave.code_length;
    best_bit_area = report.Design.bit_area;
    crossbar_yield = report.Design.crossbar_yield;
  }

(* The grid parallelises over nodes/sizes.  The context also flows into
   each grid point's inner [Optimizer.best]: submitted from inside a
   chunk while the pool is busy, those sweeps run inline on the
   submitting domain — same results, and the pool's inline-submission
   counter now makes that path visible. *)
let sweep_grid ?ctx name point items =
  let ctx = Option.value ctx ~default:Run_ctx.sequential in
  Telemetry.with_span (Run_ctx.telemetry ctx) name @@ fun () ->
  Run_ctx.map_list ctx (point ctx) items

let sweep_nodes ?ctx ?(raw_bits = 16 * 1024 * 8) ?(nodes = default_nodes)
    () =
  sweep_grid ?ctx "scaling.nodes"
    (fun ctx node -> best_point ~ctx node raw_bits)
    nodes

let paper_node = { label = "32nm-class (paper)"; litho_pitch = 32.; nanowire_pitch = 10. }

let sweep_memory_sizes ?ctx ?(sizes = [ 4; 16; 64; 256 ]) () =
  sweep_grid ?ctx "scaling.memory_sizes"
    (fun ctx kb -> best_point ~ctx paper_node (kb * 1024 * 8))
    sizes

let pp_point ppf p =
  Format.fprintf ppf
    "%-20s %8d bits: best %s M=%d -> %.0f nm^2/bit (Y^2=%.2f)" p.node.label
    p.raw_bits
    (Codebook.name p.best_code)
    p.best_length p.best_bit_area p.crossbar_yield

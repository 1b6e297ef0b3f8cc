open Nanodec_codes
open Nanodec_numerics
open Nanodec_physics
open Nanodec_mspt

type params = {
  transconductance : float;
  subthreshold_swing : float;
  min_ratio : float;
}

let default_params =
  { transconductance = 1e-6; subthreshold_swing = 0.03; min_ratio = 10. }

let region_conductance p ~gate_voltage ~threshold_voltage =
  let overdrive = gate_voltage -. threshold_voltage in
  if overdrive > 0. then p.transconductance *. overdrive
  else
    (* Subthreshold: exponential roll-off from the edge-of-conduction
       value g_m * swing. *)
    p.transconductance *. p.subthreshold_swing
    *. exp (overdrive /. p.subthreshold_swing)

let wire_conductance p levels ~address ~vt_offsets word =
  if Array.length vt_offsets <> Word.length word then
    invalid_arg "Sensing.wire_conductance: offsets length mismatch";
  (* Series transistors: resistances add. *)
  let resistance = ref 0. in
  for j = 0 to Word.length word - 1 do
    let gate_voltage =
      Addressing.applied_voltage levels (Word.get address j)
    in
    let threshold_voltage =
      Vt_levels.vt_of_digit levels (Word.get word j) +. vt_offsets.(j)
    in
    resistance :=
      !resistance +. (1. /. region_conductance p ~gate_voltage ~threshold_voltage)
  done;
  1. /. !resistance

let sense_ratio p levels ~group ~target =
  if not (List.exists (fun (w, _) -> Word.equal w target) group) then
    invalid_arg "Sensing.sense_ratio: target not in group";
  let conductance (word, vt_offsets) =
    wire_conductance p levels ~address:target ~vt_offsets word
  in
  let selected = ref 0.
  and sneak = ref 0. in
  List.iter
    (fun (word, offsets) ->
      if Word.equal word target then selected := conductance (word, offsets)
      else sneak := !sneak +. conductance (word, offsets))
    group;
  if !sneak = 0. then infinity else !selected /. !sneak

let mc_sense_yield ?(params = default_params) rng ~samples analysis =
  let config = analysis.Cave.config in
  let levels =
    Vt_levels.make ~supply_voltage:config.Cave.supply_voltage
      ~placement:config.Cave.placement ~radix:config.Cave.radix ()
  in
  let n = config.Cave.n_wires in
  let pattern = analysis.Cave.pattern in
  (* Group wire indices by owning pad once. *)
  let pads = Hashtbl.create 8 in
  Array.iteri
    (fun i status ->
      match status with
      | Geometry.Addressable k ->
        let members = Option.value ~default:[] (Hashtbl.find_opt pads k) in
        Hashtbl.replace pads k (i :: members)
      | Geometry.Shared_between_pads _ | Geometry.Excess_in_pad _ -> ())
    analysis.Cave.layout.Geometry.statuses;
  let dose_table = [| 2.; 3.; 7.; 17.; 41.; 83.; 167.; 331. |] in
  let h d = dose_table.(d mod Array.length dose_table) +. float_of_int d in
  let _, s = Doping.of_pattern ~h pattern in
  let passes = Process.passes_of_step_matrix s in
  let one_draw rng =
    let noise =
      Process.sample_vt_noise rng ~sigma_t:config.Cave.sigma_t
        ~n_wires:n ~n_regions:config.Cave.code_length passes
    in
    let noise =
      if config.Cave.sigma_base = 0. then noise
      else
        Fmatrix.map
          (fun x -> x +. Rng.gaussian ~sigma:config.Cave.sigma_base rng)
          noise
    in
    let readable = ref 0 in
    Hashtbl.iter
      (fun _pad members ->
        let group =
          List.map
            (fun i -> (Pattern.word pattern ~wire:i, Fmatrix.row noise i))
            members
        in
        List.iter
          (fun i ->
            let target = Pattern.word pattern ~wire:i in
            if sense_ratio params levels ~group ~target >= params.min_ratio
            then incr readable)
          members)
      pads;
    float_of_int !readable /. float_of_int n
  in
  Montecarlo.run (Montecarlo.spec (Montecarlo.fixed samples)) rng
    (Montecarlo.target one_draw)

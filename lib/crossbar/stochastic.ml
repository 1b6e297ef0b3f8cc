open Nanodec_numerics

type analysis = {
  omega : int;
  group_size : int;
  p_wire_unique : float;
  expected_unique_wires : float;
  expected_distinct_codes : float;
  p_all_distinct : float;
  deterministic_unique_wires : int;
}

let analyze ~omega ~group_size =
  if omega < 1 || group_size < 1 then
    invalid_arg "Stochastic.analyze: omega and group_size must be positive";
  let om = float_of_int omega
  and g = float_of_int group_size in
  let p_wire_unique = ((om -. 1.) /. om) ** (g -. 1.) in
  let expected_distinct_codes = om *. (1. -. (((om -. 1.) /. om) ** g)) in
  let p_all_distinct =
    if group_size > omega then 0.
    else
      exp
        (Special.log_factorial omega
        -. Special.log_factorial (omega - group_size)
        -. (g *. log om))
  in
  {
    omega;
    group_size;
    p_wire_unique;
    expected_unique_wires = g *. p_wire_unique;
    expected_distinct_codes;
    p_all_distinct;
    deterministic_unique_wires = Stdlib.min group_size omega;
  }

let mc_unique_fraction rng ~samples ~omega ~group_size =
  if omega < 1 || group_size < 1 then
    invalid_arg "Stochastic.mc_unique_fraction: positive arguments required";
  let draws = Array.make group_size 0 in
  let counts = Array.make omega 0 in
  let one_draw rng =
    Array.fill counts 0 omega 0;
    for i = 0 to group_size - 1 do
      let code = Rng.int rng omega in
      draws.(i) <- code;
      counts.(code) <- counts.(code) + 1
    done;
    let unique = ref 0 in
    Array.iter (fun code -> if counts.(code) = 1 then incr unique) draws;
    float_of_int !unique /. float_of_int group_size
  in
  Montecarlo.run (Montecarlo.spec (Montecarlo.fixed samples)) rng
    (Montecarlo.target one_draw)

let stochastic_loss ~omega ~group_size =
  let a = analyze ~omega ~group_size in
  1.
  -. (a.expected_unique_wires /. float_of_int a.deterministic_unique_wires)

let pp ppf a =
  Format.fprintf ppf
    "@[<v>stochastic assembly, Omega=%d, group of %d wires:@,\
     P(wire unique) = %.3f -> %.2f usable wires expected@,\
     expected distinct codes present: %.2f@,\
     P(whole group conflict-free) = %.3g@,\
     deterministic MSPT assignment: %d usable wires@]"
    a.omega a.group_size a.p_wire_unique a.expected_unique_wires
    a.expected_distinct_codes a.p_all_distinct a.deterministic_unique_wires

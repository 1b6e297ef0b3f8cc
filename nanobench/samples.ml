(* Raw per-request samples and the exact percentile rule.

   Every latency the benchmark reports comes from nearest-rank
   percentiles of the raw samples — never a histogram bucket bound —
   printed with its sample count and how many samples lie beyond it.
   A percentile is only reported when at least [min_beyond] samples lie
   beyond it, so a "p99" of 200 samples (two beyond) cannot pass for a
   tail measurement.

   A run reports the median over consecutive blocks of samples, each
   block large enough for its percentile to be reportable on its own:
   a burst of interference from outside the benchmark then moves one
   block, not the run's figure. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.; len = 0 }
let length t = t.len

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0. in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let to_array t = Array.sub t.data 0 t.len

let min_beyond = 10

type pct = {
  value : float;
  n : int;  (* samples *)
  beyond : int;  (* samples beyond the percentile (per block: the fewest) *)
  blocks : int;
}

(* Nearest rank: the smallest sample with at least [p] of the samples
   at or below it.  [beyond] counts the samples ranked above it. *)
let rank ~p n = max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let percentile ~p xs =
  let n = Array.length xs in
  if n = 0 then { value = nan; n = 0; beyond = 0; blocks = 1 }
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    let k = rank ~p n in
    { value = sorted.(k); n; beyond = n - 1 - k; blocks = 1 }
  end

let valid pct = pct.n > 0 && pct.beyond >= min_beyond

(* Smallest sample count whose [p] percentile has [min_beyond] samples
   beyond it — how long a phase must run before its tail is reportable. *)
let needed ~p =
  let rec go n = if n - 1 - rank ~p n >= min_beyond then n else go (n + 1) in
  go 1

let median xs = (percentile ~p:0.5 xs).value

(* [xs] cut into as many consecutive blocks of at least [size] samples
   as it holds (one block when it holds fewer). *)
let blocks ~size xs =
  let n = Array.length xs in
  let k = max 1 (n / size) in
  List.init k (fun i ->
      let lo = i * n / k and hi = (i + 1) * n / k in
      Array.sub xs lo (hi - lo))

(* The median over [blocks ~size xs] of each block's [p] percentile. *)
let blocked ~p ~size xs =
  let ps = List.map (percentile ~p) (blocks ~size xs) in
  {
    value = median (Array.of_list (List.map (fun b -> b.value) ps));
    n = Array.length xs;
    beyond = List.fold_left (fun a b -> min a b.beyond) max_int ps;
    blocks = List.length ps;
  }

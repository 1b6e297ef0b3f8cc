type t = {
  mutable state : int64;
  (* PCG stream selector; must be odd.  Mutable only for [copy_into]'s
     zero-allocation scratch reuse; nothing else ever writes it. *)
  mutable increment : int64;
  (* Cached second Gaussian from the polar method. *)
  mutable spare : float option;
}

(* SplitMix64 — used only to expand the user seed into well-mixed initial
   state and stream words. *)
let splitmix64 seed =
  let z = Int64.add seed 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let pcg_multiplier = 6364136223846793005L

let make ~state ~stream =
  let increment = Int64.logor (Int64.shift_left stream 1) 1L in
  let rng = { state = 0L; increment; spare = None } in
  rng.state <- Int64.add state increment;
  rng

let of_int64 seed =
  make ~state:(splitmix64 seed) ~stream:(splitmix64 (Int64.lognot seed))

let create ~seed = of_int64 (Int64.of_int seed)
let of_seed seed = create ~seed

let mix_seed a b =
  let z =
    Int64.add (Int64.of_int a)
      (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (b + 1)))
  in
  (* Mask to 62 bits so the result survives an int_of_string round trip on
     any platform and stays non-negative. *)
  Int64.to_int (Int64.logand (splitmix64 z) 0x3FFFFFFFFFFFFFFFL)

let advance rng =
  rng.state <- Int64.add (Int64.mul rng.state pcg_multiplier) rng.increment

(* PCG-XSH-RR output function, computed in Int64 so the rotate needs no
   tagged-int shifts once inlined into a hot loop.  The 32-bit rotate
   right is a 64-bit shift of the word written twice side by side, which
   also covers [rot = 0]. *)
let[@inline] output state =
  let x =
    Int64.logand
      (Int64.shift_right_logical
         (Int64.logxor (Int64.shift_right_logical state 18) state)
         27)
      0xFFFFFFFFL
  in
  let rot = Int64.to_int (Int64.shift_right_logical state 59) in
  Int64.to_int
    (Int64.logand
       (Int64.shift_right_logical (Int64.logor x (Int64.shift_left x 32)) rot)
       0xFFFFFFFFL)

let uint32 rng =
  let s = rng.state in
  advance rng;
  output s

let split rng =
  let state_word =
    Int64.logor (Int64.of_int (uint32 rng)) (Int64.shift_left (Int64.of_int (uint32 rng)) 32)
  in
  let stream_word =
    Int64.logor (Int64.of_int (uint32 rng)) (Int64.shift_left (Int64.of_int (uint32 rng)) 32)
  in
  make ~state:(splitmix64 state_word) ~stream:(splitmix64 stream_word)

let split_n rng n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  Array.init n (fun _ -> split rng)

let copy rng = { rng with state = rng.state }

(* Overwrite [into] with [src]'s full state (stream selector and polar
   spare included): the scratch-reuse form of [copy] for per-sample hot
   loops, where a fresh record per sample would be pure garbage.  [src]
   is not touched. *)
let copy_into src ~into =
  into.state <- src.state;
  into.increment <- src.increment;
  into.spare <- src.spare

let two_pow_32 = 1 lsl 32

let int rng bound =
  if bound < 1 || bound > two_pow_32 then
    invalid_arg "Rng.int: bound must be in [1, 2^32]";
  if bound land (bound - 1) = 0 then uint32 rng land (bound - 1)
  else
    (* Rejection sampling over the largest multiple of [bound] below 2^32
       keeps the draw exactly uniform. *)
    let limit = two_pow_32 - (two_pow_32 mod bound) in
    let rec draw () =
      let x = uint32 rng in
      if x < limit then x mod bound else draw ()
    in
    draw ()

let float rng = float_of_int (uint32 rng) *. 0x1p-32

let float_range rng ~min ~max =
  if not (min < max) then invalid_arg "Rng.float_range: empty range";
  min +. ((max -. min) *. float rng)

let bool rng = uint32 rng land 1 = 1

let rec polar_pair rng =
  let u = (2. *. float rng) -. 1. in
  let v = (2. *. float rng) -. 1. in
  let s = (u *. u) +. (v *. v) in
  if s >= 1. || s = 0. then polar_pair rng
  else
    let factor = sqrt (-2. *. log s /. s) in
    (u *. factor, v *. factor)

let gaussian ?(mu = 0.) ?(sigma = 1.) rng =
  let z =
    match rng.spare with
    | Some z ->
      rng.spare <- None;
      z
    | None ->
      let z1, z2 = polar_pair rng in
      rng.spare <- Some z2;
      z1
  in
  mu +. (sigma *. z)

(* Hot-loop mirror of the generator.  The public [t] keeps its friendly
   representation (boxed int64 fields, [float option] spare) because every
   existing consumer — and the bit-for-bit determinism contract — depends
   on it; the mirror trades that for an unboxed Bigarray state word and a
   flat float spare so a tight numeric loop pays no per-draw boxing.  The
   output stream is the same PCG-XSH-RR / Marsaglia polar sequence,
   bit-for-bit: [load] then any number of draws then [store] leaves the
   source generator exactly where the equivalent [gaussian] calls would
   have. *)
module Fast = struct
  type rng = t

  (* Accepted polar pairs drawn per block of [add_gaussians].  Wider
     blocks run more [log] calls side by side, which is faster on an
     idle core but makes the speed depend on whatever else shares the
     core.  Measured on a shared 2-vCPU Xeon host, 300-target runs
     interleaved: 64 pairs took 7.3-12.7 ns per Gaussian as the
     co-runner load came and went, 2 pairs 14.8-17.5 ns, the per-pair
     loop 24-25 ns.  Two pairs stay fast and nearly as steady as the
     per-pair loop. *)
  let block = 2

  type t = {
    st : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t;
    (* st.{0} = PCG state, st.{1} = stream increment (odd). *)
    spare : float array;
    (* Length 1: the polar method's cached second variate, unboxed. *)
    mutable has_spare : bool;
    bu : float array;
    bv : float array;
    bq : float array;
    (* Length [block]: one block's accepted (u, v, q) triples; [bq] is
       overwritten in place by the polar factor. *)
  }

  let create () =
    {
      st = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 2;
      spare = [| 0. |];
      has_spare = false;
      bu = Array.make block 0.;
      bv = Array.make block 0.;
      bq = Array.make block 0.;
    }

  let load fast (rng : rng) =
    Bigarray.Array1.unsafe_set fast.st 0 rng.state;
    Bigarray.Array1.unsafe_set fast.st 1 rng.increment;
    match rng.spare with
    | Some z ->
      fast.spare.(0) <- z;
      fast.has_spare <- true
    | None -> fast.has_spare <- false

  let store fast (rng : rng) =
    rng.state <- Bigarray.Array1.unsafe_get fast.st 0;
    rng.spare <- (if fast.has_spare then Some fast.spare.(0) else None)

  (* [float]'s value for the draw at state [s]. *)
  let[@inline] unit_of_state s = float_of_int (output s) *. 0x1p-32

  (* [2. *. unit_of_state s -. 1.], the polar method's coordinate, in one
     conversion and one multiply.  Both forms are exact (every value is
     a multiple of 2^-31 of magnitude at most 1), so the bits agree. *)
  let[@inline] coord_of_state s =
    float_of_int (output s - 0x80000000) *. 0x1p-31

  (* Advance the mirrored state; return the state the draw reads. *)
  let[@inline] step fast =
    let s = Bigarray.Array1.unsafe_get fast.st 0 in
    Bigarray.Array1.unsafe_set fast.st 0
      (Int64.add (Int64.mul s pcg_multiplier)
         (Bigarray.Array1.unsafe_get fast.st 1));
    s

  let[@inline] float fast = unit_of_state (step fast)

  let gaussian_std fast =
    if fast.has_spare then begin
      fast.has_spare <- false;
      Array.unsafe_get fast.spare 0
    end
    else
      let rec loop () =
        let u = coord_of_state (step fast) in
        let v = coord_of_state (step fast) in
        let s = (u *. u) +. (v *. v) in
        if s >= 1. || s = 0. then loop ()
        else begin
          let factor = sqrt (-2. *. log s /. s) in
          Array.unsafe_set fast.spare 0 (v *. factor);
          fast.has_spare <- true;
          u *. factor
        end
      in
      loop ()

  (* The bulk form of [gaussian_std]: equivalent to
       for t = 0 to n - 1 do
         noise.(targets.(t)) <- noise.(targets.(t))
                                +. sigma *. gaussian_std fast
       done
     and consuming the identical stream, bit for bit.  The PCG state
     lives in a local for the whole run, and each block of up to
     [block] pairs goes through three branch-light stages: draw exactly
     the accepted (u, v, q) triples the run still needs (every triple is
     written, the slot only advances on acceptance), turn every q into
     its polar factor, then scatter the variates in target order. *)
  let add_gaussians fast ~sigma targets noise =
    let n = Array.length targets in
    let t = ref 0 in
    if n > 0 && fast.has_spare then begin
      fast.has_spare <- false;
      let idx = Array.unsafe_get targets 0 in
      Array.unsafe_set noise idx
        (Array.unsafe_get noise idx
        +. (sigma *. Array.unsafe_get fast.spare 0));
      t := 1
    end;
    if !t < n then begin
      let bu = fast.bu and bv = fast.bv and bq = fast.bq in
      let inc = Bigarray.Array1.unsafe_get fast.st 1 in
      let s = ref (Bigarray.Array1.unsafe_get fast.st 0) in
      while !t < n do
        let remaining = n - !t in
        let pairs = Int.min block ((remaining + 1) / 2) in
        let k = ref 0 in
        while !k < pairs do
          let s0 = !s in
          let s1 = Int64.add (Int64.mul s0 pcg_multiplier) inc in
          s := Int64.add (Int64.mul s1 pcg_multiplier) inc;
          let u = coord_of_state s0 in
          let v = coord_of_state s1 in
          let q = (u *. u) +. (v *. v) in
          Array.unsafe_set bu !k u;
          Array.unsafe_set bv !k v;
          Array.unsafe_set bq !k q;
          (* q is a sum of squares, never NaN, so [q > 0.] is the
             reference's [q <> 0.]. *)
          k := !k + (Bool.to_int (q < 1.) land Bool.to_int (q > 0.))
        done;
        for i = 0 to pairs - 1 do
          let q = Array.unsafe_get bq i in
          Array.unsafe_set bq i (sqrt (-2. *. log q /. q))
        done;
        (* Only the run's last block can end on half a pair. *)
        let full = Int.min pairs (remaining / 2) in
        let t0 = !t in
        for i = 0 to full - 1 do
          let f = Array.unsafe_get bq i in
          let idx = Array.unsafe_get targets (t0 + (2 * i)) in
          Array.unsafe_set noise idx
            (Array.unsafe_get noise idx
            +. (sigma *. (Array.unsafe_get bu i *. f)));
          let idx = Array.unsafe_get targets (t0 + (2 * i) + 1) in
          Array.unsafe_set noise idx
            (Array.unsafe_get noise idx
            +. (sigma *. (Array.unsafe_get bv i *. f)))
        done;
        t := t0 + (2 * full);
        if full < pairs then begin
          (* Odd run: cache the raw second variate exactly as
             [gaussian_std] would. *)
          let f = Array.unsafe_get bq full in
          let idx = Array.unsafe_get targets !t in
          Array.unsafe_set noise idx
            (Array.unsafe_get noise idx
            +. (sigma *. (Array.unsafe_get bu full *. f)));
          Array.unsafe_set fast.spare 0 (Array.unsafe_get bv full *. f);
          fast.has_spare <- true;
          t := n
        end
      done;
      Bigarray.Array1.unsafe_set fast.st 0 !s
    end
end

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle_list rng xs =
  let a = Array.of_list xs in
  shuffle rng a;
  Array.to_list a

let pick rng a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int rng (Array.length a))

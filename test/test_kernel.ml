(* The compiled MC kernel layer (Kernel / Rng.Fast / Workspace) and the
   satellite fast paths of the same PR: sort-based pass extraction,
   sorted-array code metrics, precomputed-nu variability.  The central
   claim everywhere is bit-for-bit equivalence with the slower reference
   implementation. *)

open Nanodec_numerics
open Nanodec_codes
open Nanodec_mspt
open Nanodec_crossbar
module Run_ctx = Nanodec_parallel.Run_ctx
module Fault = Nanodec_fault.Fault

let estimate : Montecarlo.estimate Alcotest.testable =
  Alcotest.testable Montecarlo.pp (fun a b -> a = b)

let analysis_of ?(n_wires = 20) ct m =
  Cave.analyze
    { Cave.default_config with Cave.code_type = ct; code_length = m; n_wires }

let families = [ (Codebook.Tree, 8); (Codebook.Balanced_gray, 10);
                 (Codebook.Hot, 4); (Codebook.Arranged_hot, 6) ]

(* --- kernel == reference draw, bit for bit --- *)

let test_kernel_equals_reference () =
  List.iter
    (fun (ct, m) ->
      let a = analysis_of ct m in
      List.iter
        (fun domains ->
          Run_ctx.with_ctx ~domains ~warn:false (fun ctx ->
              let kernel =
                Cave.mc_yield_window ~ctx (Rng.create ~seed:2009)
                  ~samples:300 a
              in
              let reference =
                Cave.mc_yield_window_reference ~ctx (Rng.create ~seed:2009)
                  ~samples:300 a
              in
              Alcotest.check estimate
                (Printf.sprintf "%s M=%d, domains=%d" (Codebook.name ct) m
                   domains)
                reference kernel))
        [ 1; 4 ])
    families

let test_kernel_equals_reference_under_faults () =
  let a = analysis_of Codebook.Balanced_gray 10 in
  let plan () =
    Fault.create
      (Fault.parse_exn
         "seed=7;pool.chunk:crash:p=0.3;mc.sample_batch:crash:p=0.2")
  in
  List.iter
    (fun domains ->
      let run ?fault estimator =
        Run_ctx.with_ctx ~domains ?fault ~warn:false (fun ctx ->
            estimator ctx (Rng.create ~seed:11) a)
      in
      let kernelized ctx rng a =
        Cave.mc_yield_window ~ctx rng ~samples:250 a
      in
      let reference ctx rng a =
        Cave.mc_yield_window_reference ~ctx rng ~samples:250 a
      in
      let clean = run kernelized in
      Alcotest.check estimate
        (Printf.sprintf "inert engine, domains=%d" domains)
        clean
        (run ~fault:(Fault.inert ()) kernelized);
      Alcotest.check estimate
        (Printf.sprintf "crash plan, domains=%d" domains)
        clean
        (run ~fault:(plan ()) kernelized);
      Alcotest.check estimate
        (Printf.sprintf "crash plan vs reference, domains=%d" domains)
        (run reference)
        (run ~fault:(plan ()) kernelized))
    [ 1; 4 ]

let test_sequential_kernel_path () =
  (* One window-yield estimator: without a context it is a hand-written
     [Montecarlo.run] on the kernel's target, and a 2-domain context
     moves no bit of it. *)
  let a = analysis_of Codebook.Tree 8 in
  let k = Cave.kernel_of_analysis a in
  let spec = Montecarlo.spec (Montecarlo.fixed 150) in
  let direct = Cave.mc_yield_window (Rng.create ~seed:5) ~samples:150 a in
  let manual = Montecarlo.run spec (Rng.create ~seed:5) (Kernel.target k) in
  let pooled =
    Run_ctx.with_ctx ~domains:2 ~warn:false (fun ctx ->
        Montecarlo.run ~ctx spec (Rng.create ~seed:5) (Kernel.target k))
  in
  Alcotest.check estimate "ctx-less = hand-written run" direct manual;
  Alcotest.check estimate "2-domain run = hand-written run" manual pooled

let test_ctx_less_equals_reference () =
  (* Without a context both estimators fall back to
     [Run_ctx.sequential]; the kernel still reproduces the reference. *)
  List.iter
    (fun (ct, m) ->
      let a = analysis_of ct m in
      Alcotest.check estimate
        (Printf.sprintf "%s M=%d" (Codebook.name ct) m)
        (Cave.mc_yield_window_reference (Rng.create ~seed:13) ~samples:200 a)
        (Cave.mc_yield_window (Rng.create ~seed:13) ~samples:200 a))
    families

let test_precompiled_kernel () =
  (* A caller holding the compiled program (the serve artifact cache)
     gets the same estimate as a per-call compile, with or without a
     pool. *)
  let a = analysis_of Codebook.Balanced_gray 10 in
  let kernel = Cave.kernel_of_analysis a in
  let compiled = Cave.mc_yield_window (Rng.create ~seed:3) ~samples:250 a in
  Alcotest.check estimate "ctx-less" compiled
    (Cave.mc_yield_window ~kernel (Rng.create ~seed:3) ~samples:250 a);
  Run_ctx.with_ctx ~domains:2 ~warn:false (fun ctx ->
      Alcotest.check estimate "2-domain context" compiled
        (Cave.mc_yield_window ~ctx ~kernel (Rng.create ~seed:3) ~samples:250
           a))

let test_explicit_spec_wins () =
  (* An explicit [?spec] overrides the context's sampling method in both
     directions. *)
  let a = analysis_of Codebook.Tree 8 in
  let plain = Cave.mc_yield_window (Rng.create ~seed:6) ~samples:200 a in
  let antithetic_spec =
    Montecarlo.spec ~strategy:Montecarlo.Antithetic (Montecarlo.fixed 200)
  in
  let antithetic =
    Cave.mc_yield_window ~spec:antithetic_spec (Rng.create ~seed:6)
      ~samples:200 a
  in
  Run_ctx.with_ctx ~domains:2 ~mc_method:Run_ctx.Antithetic ~warn:false
    (fun ctx ->
      Alcotest.check estimate "plain spec beats antithetic ctx" plain
        (Cave.mc_yield_window ~ctx
           ~spec:(Montecarlo.spec (Montecarlo.fixed 200))
           (Rng.create ~seed:6) ~samples:200 a);
      Alcotest.check estimate "antithetic ctx = antithetic spec" antithetic
        (Cave.mc_yield_window ~ctx (Rng.create ~seed:6) ~samples:200 a));
  Alcotest.check estimate "hand-written antithetic run" antithetic
    (Montecarlo.run antithetic_spec (Rng.create ~seed:6)
       (Kernel.target (Cave.kernel_of_analysis a)))

let test_kernel_draw_accounting () =
  (* For a cave analysis every implant draw maps to one doping operation,
     so the compiled program size must equal sum(nu) plus (sigma_base <>
     0) one draw per cell of the N x M plane. *)
  List.iter
    (fun (ct, m) ->
      let a = analysis_of ct m in
      let k = Cave.kernel_of_analysis a in
      let cells = a.Cave.config.Cave.n_wires * a.Cave.config.Cave.code_length in
      Alcotest.(check int)
        (Printf.sprintf "%s M=%d draws" (Codebook.name ct) m)
        (Imatrix.sum a.Cave.nu
        + if a.Cave.config.Cave.sigma_base <> 0. then cells else 0)
        (Kernel.draws_per_sample k))
    families

let test_fast_mirror_stream () =
  (* Rng.Fast must replay the generator's exact Gaussian stream through
     load/draw/store cycles of every length, including the polar spare
     cached across a store/load boundary. *)
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let fast = Rng.Fast.create () in
  for k = 0 to 16 do
    let xs = Array.init k (fun _ -> Rng.gaussian ~sigma:0.05 a) in
    Rng.Fast.load fast b;
    let ys = Array.init k (fun _ -> 0.05 *. Rng.Fast.gaussian_std fast) in
    Rng.Fast.store fast b;
    Alcotest.(check bool)
      (Printf.sprintf "gaussian run of %d" k)
      true (xs = ys);
    Alcotest.(check bool)
      (Printf.sprintf "uniform draw after run of %d" k)
      true
      (Rng.float a = Rng.float b)
  done

(* --- Rng.Fast.add_gaussians is the per-call stream, bit for bit --- *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* The written-out per-call form [add_gaussians] must reproduce. *)
let add_gaussians_per_call fast ~sigma targets noise =
  Array.iter
    (fun idx ->
      noise.(idx) <- noise.(idx) +. (sigma *. Rng.Fast.gaussian_std fast))
    targets

(* Run [runs] (a list of sigma, targets) back to back through one mirror
   loaded from a fresh [seed] generator — after [pre] plain gaussian
   draws, so an odd [pre] carries a spare in — then store it back.
   Returns the noise plane and the stored generator. *)
let run_mirror add ~seed ~pre ~cells runs =
  let rng = Rng.create ~seed in
  for _ = 1 to pre do
    ignore (Rng.gaussian rng)
  done;
  let fast = Rng.Fast.create () in
  let noise = Array.make cells 0. in
  Rng.Fast.load fast rng;
  List.iter (fun (sigma, targets) -> add fast ~sigma targets noise) runs;
  Rng.Fast.store fast rng;
  (noise, rng)

let check_same_stream label ~seed ~pre ~cells runs =
  let bulk, a =
    run_mirror Rng.Fast.add_gaussians ~seed ~pre ~cells runs
  in
  let per_call, b = run_mirror add_gaussians_per_call ~seed ~pre ~cells runs in
  Alcotest.(check bool) (label ^ ": noise bits") true (bits_equal bulk per_call);
  (* The stored generators agree: state, and the spare carried out. *)
  Alcotest.(check bool)
    (label ^ ": gaussian after")
    true
    (bits_equal [| Rng.gaussian a; Rng.gaussian a |]
       [| Rng.gaussian b; Rng.gaussian b |]);
  Alcotest.(check bool)
    (label ^ ": float after")
    true
    (bits_equal [| Rng.float a |] [| Rng.float b |])

let test_add_gaussians_stream () =
  (* Lengths 0-131 cover every run shape up to 2 * 64 + 3: both sides of
     a block boundary for any block size up to 64 (the loop uses 2); the
     large runs cross many blocks with an odd and an even tail. *)
  let lengths = List.init 132 Fun.id @ [ 999; 1000; 4095; 4096 ] in
  List.iter
    (fun n ->
      List.iter
        (fun pre ->
          let label = Printf.sprintf "n=%d pre=%d" n pre in
          (* One run over distinct cells, as the plane sweep does. *)
          check_same_stream (label ^ " plane") ~seed:(n + 1) ~pre ~cells:n
            [ (0.05, Array.init n Fun.id) ];
          (* Implant targets then the plane, back to back on one mirror
             as [Kernel.fill_noise] runs them; the targets repeat cells,
             which pins the per-cell addition order. *)
          let cells = 7 in
          let pick = Rng.create ~seed:(1000 + n) in
          let targets = Array.init n (fun _ -> Rng.int pick cells) in
          check_same_stream (label ^ " targets+plane") ~seed:(n + 2) ~pre
            ~cells
            [ (0.05, targets); (0.01, Array.init cells Fun.id) ])
        [ 0; 1 ])
    lengths

let test_fast_float_stream () =
  (* 10^5 uniforms: the state's top five bits (the rotate amount) hit
     every value, 0 included, thousands of times.  [Rng.float] and
     [Fast.float] share the PCG output function, so the stream is also
     pinned by a checksum taken with the earlier tagged-int rotate. *)
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  let fast = Rng.Fast.create () in
  Rng.Fast.load fast b;
  let xs = Array.init 100_000 (fun _ -> Rng.float a) in
  let ys = Array.init 100_000 (fun _ -> Rng.Fast.float fast) in
  Rng.Fast.store fast b;
  Alcotest.(check bool) "Fast.float bits" true (bits_equal xs ys);
  let checksum =
    Array.fold_left
      (fun acc x ->
        ((acc * 31) + int_of_float (x *. 0x1p32)) land 0x3FFFFFFFFFFFFFFF)
      0 xs
  in
  Alcotest.(check int) "golden checksum" 0x246da1b27db7fa42 checksum;
  Alcotest.(check int) "uint32 after" (Rng.uint32 a) (Rng.uint32 b)

(* --- satellite: sort-based pass extraction pins the historical order --- *)

let test_pass_order_regression () =
  (* Hand-built step matrix; the pass list (order included!) is part of
     the MC draw order, so it is pinned exactly: rows ascending, and
     within a row the distinct doses in reverse first-occurrence order —
     what the historical kept-list scan produced. *)
  let s =
    Fmatrix.init ~rows:3 ~cols:4 (fun i j ->
        [|
          [| 2.; 3.; 2.; 0. |];
          [| 0.; 7.; 7.; 2. |];
          [| 5.; 5.; 5.; 5. |];
        |].(i).(j))
  in
  let expected =
    [
      { Process.after_wire = 0; dose = 3.; mask = [| false; true; false; false |] };
      { Process.after_wire = 0; dose = 2.; mask = [| true; false; true; false |] };
      { Process.after_wire = 1; dose = 2.; mask = [| false; false; false; true |] };
      { Process.after_wire = 1; dose = 7.; mask = [| false; true; true; false |] };
      { Process.after_wire = 2; dose = 5.; mask = [| true; true; true; true |] };
    ]
  in
  Alcotest.(check bool)
    "pinned pass list" true
    (Process.passes_of_step_matrix s = expected);
  Alcotest.(check int) "distinct doses" 4
    (Process.distinct_doses (Process.passes_of_step_matrix s))

let test_pass_eps_merge () =
  (* Values within eps of an earlier dose merge into it: the pass carries
     the first-occurrence value and a mask covering both columns. *)
  let s =
    Fmatrix.init ~rows:1 ~cols:3 (fun _ j -> [| 1.0; 1.0 +. 5e-10; 2.0 |].(j))
  in
  match Process.passes_of_step_matrix s with
  | [ p2; p1 ] ->
    (* reverse first-occurrence order within the row: 2.0 before 1.0 *)
    Alcotest.(check (float 0.)) "distinct dose" 2.0 p2.Process.dose;
    Alcotest.(check (float 0.)) "merged dose" 1.0 p1.Process.dose;
    Alcotest.(check bool) "merged mask" true
      (p1.Process.mask = [| true; true; false |])
  | passes -> Alcotest.failf "expected 2 passes, got %d" (List.length passes)

(* --- satellite: metrics from one sorted array --- *)

let test_metrics_duplicates () =
  let w digits = Word.make ~radix:2 digits in
  let m =
    Metrics.of_words [ w [| 0; 0 |]; w [| 0; 1 |]; w [| 0; 0 |]; w [| 1; 1 |] ]
  in
  Alcotest.(check int) "n_words" 4 m.Metrics.n_words;
  Alcotest.(check int) "distinct" 3 m.Metrics.distinct_words;
  Alcotest.(check int) "min pairwise" 1 m.Metrics.min_pairwise_distance;
  let far = Metrics.of_words [ w [| 0; 0 |]; w [| 1; 1 |] ] in
  Alcotest.(check int) "distance-2 pair" 2 far.Metrics.min_pairwise_distance;
  let single = Metrics.of_words [ w [| 1; 0 |]; w [| 1; 0 |] ] in
  Alcotest.(check int) "all equal: distinct" 1 single.Metrics.distinct_words;
  Alcotest.(check int) "all equal: min pairwise" 0
    single.Metrics.min_pairwise_distance

let test_metrics_matches_bruteforce () =
  (* The sorted-array computation equals the quadratic definition on a
     real codebook with duplicates appended. *)
  let words =
    Codebook.sequence ~radix:2 ~length:6 ~count:12 Codebook.Balanced_gray
  in
  let words = words @ List.filteri (fun i _ -> i mod 3 = 0) words in
  let m = Metrics.of_words words in
  let arr = Array.of_list words in
  let n = Array.length arr in
  let distinct = List.length (List.sort_uniq Word.compare words) in
  let best = ref (Word.length arr.(0)) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (Word.equal arr.(i) arr.(j)) then
        best := Stdlib.min !best (Word.hamming_distance arr.(i) arr.(j))
    done
  done;
  Alcotest.(check int) "distinct" distinct m.Metrics.distinct_words;
  Alcotest.(check int) "min pairwise" !best m.Metrics.min_pairwise_distance

(* --- satellite: precomputed-nu fast paths --- *)

let test_variability_nu_passthrough () =
  let p =
    Pattern.of_codebook ~radix:2 ~length:8 ~n_wires:12 Codebook.Balanced_gray
  in
  let nu = Variability.nu_matrix p in
  Alcotest.(check (float 0.)) "average_nu" (Variability.average_nu p)
    (Variability.average_nu ~nu p);
  Alcotest.(check (float 0.)) "region_std"
    (Variability.region_std ~sigma_t:0.05 p ~wire:3 ~region:5)
    (Variability.region_std ~nu ~sigma_t:0.05 p ~wire:3 ~region:5);
  Alcotest.(check (float 0.)) "sigma_norm1"
    (Variability.sigma_norm1 ~sigma_t:0.05 p)
    (Variability.sigma_norm1 ~nu ~sigma_t:0.05 p);
  Alcotest.(check bool) "normalized_std_matrix" true
    (Fmatrix.equal
       (Variability.normalized_std_matrix p)
       (Variability.normalized_std_matrix ~nu p))

let suite =
  [
    Alcotest.test_case "kernel equals reference (domains 1/4)" `Quick
      test_kernel_equals_reference;
    Alcotest.test_case "kernel equals reference under fault plans" `Quick
      test_kernel_equals_reference_under_faults;
    Alcotest.test_case "sequential estimator runs the kernel" `Quick
      test_sequential_kernel_path;
    Alcotest.test_case "ctx-less kernel equals reference" `Quick
      test_ctx_less_equals_reference;
    Alcotest.test_case "precompiled kernel equals per-call compile" `Quick
      test_precompiled_kernel;
    Alcotest.test_case "explicit spec overrides the context method" `Quick
      test_explicit_spec_wins;
    Alcotest.test_case "compiled program size equals sum(nu)" `Quick
      test_kernel_draw_accounting;
    Alcotest.test_case "Rng.Fast mirrors the gaussian stream" `Quick
      test_fast_mirror_stream;
    Alcotest.test_case "Fast.add_gaussians is the per-call stream" `Quick
      test_add_gaussians_stream;
    Alcotest.test_case "Fast.float is Rng.float over 10^5 draws" `Quick
      test_fast_float_stream;
    Alcotest.test_case "pass order regression (sort-based dedup)" `Quick
      test_pass_order_regression;
    Alcotest.test_case "pass eps merge keeps first occurrence" `Quick
      test_pass_eps_merge;
    Alcotest.test_case "metrics with duplicate words" `Quick
      test_metrics_duplicates;
    Alcotest.test_case "metrics equal brute force" `Quick
      test_metrics_matches_bruteforce;
    Alcotest.test_case "variability accepts precomputed nu" `Quick
      test_variability_nu_passthrough;
  ]

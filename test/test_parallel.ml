(* Domain-parallel engine: the bit-for-bit determinism contract and the
   pool's failure/robustness guarantees.

   The headline property: every parallel entry point returns a value
   structurally identical to its sequential counterpart for every domain
   count — the chunk structure, not the scheduling, decides the result. *)

open Nanodec_numerics
open Nanodec_parallel

let domain_counts = [ 1; 2; 4; 8 ]
let seeds = [ 1; 2009; 424242 ]

let estimate : Montecarlo.estimate Alcotest.testable =
  Alcotest.testable Montecarlo.pp ( = )

(* --- NANODEC_DOMAINS parsing --- *)

let test_parse_domains () =
  let some = [ ("1", 1); ("2", 2); ("16", 16); ("0007", 7) ] in
  List.iter
    (fun (s, n) ->
      Alcotest.(check (option int)) s (Some n) (Pool.parse_domains s))
    some;
  List.iter
    (fun s ->
      Alcotest.(check (option int)) ("reject " ^ s) None (Pool.parse_domains s))
    [ ""; "0"; "-3"; "four"; "2.5"; " 2"; "2 "; "0x2" ]

(* --- Monte-Carlo equivalence: parallel = sequential, all domain counts --- *)

(* A deterministic integrand with enough structure to expose any chunk
   or stream mix-up: mean of a few uniforms, squashed nonlinearly. *)
let integrand rng =
  let a = Rng.float rng in
  let b = Rng.float rng in
  sin (3.0 *. a) *. cos (2.0 *. b) +. (a *. b)

let check_estimate_invariance ~samples ~chunks () =
  let chunking = Run_ctx.Fixed chunks in
  let run ctx seed =
    Montecarlo.run ~ctx
      (Montecarlo.spec (Montecarlo.fixed samples))
      (Rng.create ~seed) (Montecarlo.target integrand)
  in
  List.iter
    (fun seed ->
      let baseline = run (Run_ctx.make ~chunking ()) seed in
      List.iter
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              let e = run (Run_ctx.make ~pool ~chunking ()) seed in
              Alcotest.check estimate
                (Printf.sprintf "estimate seed=%d domains=%d" seed domains)
                baseline e))
        domain_counts)
    seeds

let test_estimate_invariance () =
  check_estimate_invariance ~samples:1000 ~chunks:64 ()

let test_estimate_degenerate () =
  (* chunks > samples: most chunks are empty and must contribute nothing. *)
  check_estimate_invariance ~samples:2 ~chunks:64 ();
  (* ragged split: 3 samples over 7 chunks. *)
  check_estimate_invariance ~samples:3 ~chunks:7 ();
  (* single chunk: the parallel path is one sequential run. *)
  check_estimate_invariance ~samples:50 ~chunks:1 ()

(* The 0/1 indicator that replaced the proportion estimators takes the
   same chunked path: bit-equal across domain counts and chunkings. *)
let test_proportion_invariance () =
  let indicator rng = if Rng.float rng < 0.37 then 1. else 0. in
  let run ctx seed =
    Montecarlo.run ~ctx
      (Montecarlo.spec (Montecarlo.fixed 600))
      (Rng.create ~seed) (Montecarlo.target indicator)
  in
  List.iter
    (fun seed ->
      let baseline = run Run_ctx.sequential seed in
      Alcotest.(check bool)
        (Printf.sprintf "CI contains 0.37, seed=%d" seed)
        true
        (Montecarlo.within baseline 0.37);
      List.iter
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              List.iter
                (fun chunking ->
                  Alcotest.check estimate
                    (Printf.sprintf "proportion seed=%d domains=%d" seed
                       domains)
                    baseline
                    (run (Run_ctx.make ~pool ~chunking ()) seed))
                [ Run_ctx.Auto; Run_ctx.Fixed 7 ]))
        domain_counts)
    seeds

let test_estimate_validation () =
  (* Chunk counts arrive through the context and are validated there,
     uniformly for every estimator. *)
  Alcotest.check_raises "chunks < 1"
    (Invalid_argument "Run_ctx.make: Fixed chunking must be >= 1")
    (fun () -> ignore (Run_ctx.make ~chunking:(Run_ctx.Fixed 0) ()))

(* --- crossbar Monte-Carlo yield --- *)

let test_mc_yield_window_invariance () =
  let spec =
    Nanodec.Design.spec ~code_type:Nanodec_codes.Codebook.Tree ~code_length:8 ()
  in
  let analysis = Nanodec_crossbar.Cave.analyze spec.Nanodec.Design.cave in
  let samples = 200 in
  let baseline =
    Nanodec_crossbar.Cave.mc_yield_window (Rng.create ~seed:2009) ~samples
      analysis
  in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let ctx = Run_ctx.make ~pool () in
          let e =
            Nanodec_crossbar.Cave.mc_yield_window ~ctx
              (Rng.create ~seed:2009) ~samples analysis
          in
          Alcotest.check estimate
            (Printf.sprintf "mc yield, domains=%d" domains)
            baseline e))
    domain_counts

(* --- sweep / figures / scaling / ablation equivalence --- *)

let small_candidates =
  Nanodec.Optimizer.
    [
      { code_type = Nanodec_codes.Codebook.Tree; code_length = 6 };
      { code_type = Nanodec_codes.Codebook.Gray; code_length = 6 };
      { code_type = Nanodec_codes.Codebook.Balanced_gray; code_length = 6 };
      { code_type = Nanodec_codes.Codebook.Hot; code_length = 4 };
      { code_type = Nanodec_codes.Codebook.Arranged_hot; code_length = 4 };
    ]

let test_sweep_invariance () =
  let baseline = Nanodec.Optimizer.sweep ~candidates:small_candidates () in
  Alcotest.(check int) "baseline size" 5 (List.length baseline);
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let ctx = Run_ctx.make ~pool () in
          let reports =
            Nanodec.Optimizer.sweep ~ctx ~candidates:small_candidates ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "sweep identical, domains=%d" domains)
            true
            (reports = baseline)))
    domain_counts

let test_figures_invariance () =
  let fig7 = Nanodec.Figures.fig7 () in
  let fig8 = Nanodec.Figures.fig8 () in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let ctx = Run_ctx.make ~pool () in
          Alcotest.(check bool)
            (Printf.sprintf "fig7 identical, domains=%d" domains)
            true
            (Nanodec.Figures.fig7 ~ctx () = fig7);
          Alcotest.(check bool)
            (Printf.sprintf "fig8 identical, domains=%d" domains)
            true
            (Nanodec.Figures.fig8 ~ctx () = fig8)))
    [ 1; 4 ]

let test_scaling_ablation_invariance () =
  let nodes = Nanodec.Scaling.sweep_nodes () in
  let ablation = Nanodec.Ablation.sigma_t () in
  Pool.with_pool ~domains:4 (fun pool ->
      let ctx = Run_ctx.make ~pool () in
      Alcotest.(check bool)
        "scaling nodes identical" true
        (Nanodec.Scaling.sweep_nodes ~ctx () = nodes);
      Alcotest.(check bool)
        "sigma_t ablation identical" true
        (Nanodec.Ablation.sigma_t ~ctx () = ablation))

(* Omitting [?ctx] is exactly passing [Run_ctx.sequential]. *)
let test_ctx_less_is_sequential () =
  let ctx = Run_ctx.sequential in
  Alcotest.(check bool) "optimizer sweep" true
    (Nanodec.Optimizer.sweep ~candidates:small_candidates ()
    = Nanodec.Optimizer.sweep ~ctx ~candidates:small_candidates ());
  Alcotest.(check bool) "fig8" true
    (Nanodec.Figures.fig8 () = Nanodec.Figures.fig8 ~ctx ());
  Alcotest.(check bool) "sigma_t ablation" true
    (Nanodec.Ablation.sigma_t () = Nanodec.Ablation.sigma_t ~ctx ());
  let nodes = [ List.hd Nanodec.Scaling.default_nodes ] in
  Alcotest.(check bool) "scaling nodes" true
    (Nanodec.Scaling.sweep_nodes ~nodes ()
    = Nanodec.Scaling.sweep_nodes ~ctx ~nodes ());
  Alcotest.check estimate "MC estimate"
    (Montecarlo.run
       (Montecarlo.spec (Montecarlo.fixed 300))
       (Rng.create ~seed:2009) (Montecarlo.target integrand))
    (Montecarlo.run ~ctx
       (Montecarlo.spec (Montecarlo.fixed 300))
       (Rng.create ~seed:2009) (Montecarlo.target integrand))

(* --- pool robustness --- *)

let test_exception_propagates () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          Alcotest.check_raises
            (Printf.sprintf "failure re-raised, domains=%d" domains)
            (Failure "boom")
            (fun () ->
              ignore
                (Pool.map pool
                   (fun i -> if i = 5 then failwith "boom" else i)
                   (Array.init 32 Fun.id)))))
    [ 1; 4 ]

let test_lowest_failure_wins () =
  (* Every chunk fails; the sequential loop would have raised chunk 0's
     exception first, so the pool must report exactly that one. *)
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "lowest index wins" (Failure "chunk 0") (fun () ->
          Pool.parallel_for pool ~chunks:16 (fun i ->
              failwith (Printf.sprintf "chunk %d" i))))

let test_pool_reusable_after_failure () =
  Pool.with_pool ~domains:4 (fun pool ->
      (try
         ignore
           (Pool.map pool
              (fun i -> if i mod 3 = 0 then failwith "flaky" else i)
              (Array.init 24 Fun.id))
       with Failure _ -> ());
      let xs = Array.init 100 Fun.id in
      let doubled = Pool.map pool (fun x -> 2 * x) xs in
      Alcotest.(check (array int))
        "pool still works after a failed job"
        (Array.map (fun x -> 2 * x) xs)
        doubled)

let test_nested_submission_inline () =
  (* A job submitted from inside a running chunk must complete inline
     with the same result, not deadlock — with a telemetry sink
     attached (the probes run inside the scheduler's lock-sensitive
     paths, so this doubles as a no-deadlock regression test) and with
     every inline submission showing up in the counter. *)
  let sink = Nanodec_telemetry.Telemetry.create () in
  Pool.with_pool ~domains:2 ~telemetry:sink (fun pool ->
      Alcotest.(check int) "no inline submissions yet" 0
        (Pool.inline_submissions pool);
      let outer =
        Pool.map pool
          (fun i ->
            let inner = Pool.map pool (fun j -> i + j) (Array.init 4 Fun.id) in
            Array.fold_left ( + ) 0 inner)
          (Array.init 8 Fun.id)
      in
      let expected = Array.init 8 (fun i -> (4 * i) + 6) in
      Alcotest.(check (array int)) "nested jobs" expected outer;
      (* Every one of the 8 inner jobs was submitted while the outer job
         held the pool busy. *)
      Alcotest.(check int) "inline submissions counted" 8
        (Pool.inline_submissions pool));
  Alcotest.(check bool) "span trees well-formed under nesting" true
    (Nanodec_telemetry.Telemetry.well_formed sink)

let test_many_successive_jobs () =
  Pool.with_pool ~domains:4 (fun pool ->
      for round = 1 to 60 do
        let xs = Array.init (1 + (round mod 17)) Fun.id in
        let got = Pool.map pool (fun x -> x * x) xs in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.map (fun x -> x * x) xs)
          got
      done)

let test_map_reduce_order () =
  (* String concatenation is non-commutative: any out-of-order reduction
     changes the answer. *)
  let xs = Array.init 26 (fun i -> String.make 1 (Char.chr (Char.code 'a' + i))) in
  let expected = String.concat "" (Array.to_list xs) in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let got =
            Pool.map_reduce pool ~map:Fun.id ~reduce:( ^ ) ~init:"" xs
          in
          Alcotest.(check string)
            (Printf.sprintf "in-order reduce, domains=%d" domains)
            expected got))
    domain_counts

let test_timeout_mid_batch () =
  (* The deadline check runs inside the batch loop, so a deadline that
     expires while a domain is mid-way through a claimed batch must
     still surface as a structured timeout — and leave the pool usable. *)
  let module E = Nanodec_error in
  Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.check_raises "deadline trips mid-batch"
        (E.Error (E.Timeout { site = "pool.job"; seconds = Some 0.05 }))
        (fun () ->
          (* Two claims of 64 chunks each: ~128 ms of sleeping per
             claim, so the 50 ms deadline always expires inside a
             batch, never between claims. *)
          Pool.parallel_for ~timeout_s:0.05 ~batch:64 pool ~chunks:128
            (fun _ -> Unix.sleepf 0.002));
      let xs = Array.init 50 Fun.id in
      Alcotest.(check (array int))
        "pool reusable after mid-batch timeout" (Array.map succ xs)
        (Pool.map pool succ xs))

let test_shutdown () =
  let pool = Pool.create ~domains:4 () in
  Alcotest.(check int) "domains" 4 (Pool.domains pool);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "use after shutdown"
    (Invalid_argument "Pool: used after shutdown") (fun () ->
      Pool.parallel_for pool ~chunks:2 ignore)

let test_create_validation () =
  Alcotest.check_raises "domains < 1"
    (Invalid_argument "Pool.create: domains must be >= 1")
    (fun () -> ignore (Pool.create ~domains:0 ()))

let suite =
  [
    Alcotest.test_case "NANODEC_DOMAINS parsing" `Quick test_parse_domains;
    Alcotest.test_case "MC estimate invariant across domain counts" `Quick
      test_estimate_invariance;
    Alcotest.test_case "MC estimate degenerate chunkings" `Quick
      test_estimate_degenerate;
    Alcotest.test_case "MC proportion invariant across domain counts" `Quick
      test_proportion_invariance;
    Alcotest.test_case "estimator argument validation" `Quick
      test_estimate_validation;
    Alcotest.test_case "crossbar MC yield invariant" `Quick
      test_mc_yield_window_invariance;
    Alcotest.test_case "optimizer sweep invariant" `Quick test_sweep_invariance;
    Alcotest.test_case "figures 7/8 invariant" `Quick test_figures_invariance;
    Alcotest.test_case "ctx-less calls equal Run_ctx.sequential" `Quick
      test_ctx_less_is_sequential;
    Alcotest.test_case "scaling and ablation invariant" `Quick
      test_scaling_ablation_invariance;
    Alcotest.test_case "chunk exception re-raised at join" `Quick
      test_exception_propagates;
    Alcotest.test_case "lowest-index failure wins" `Quick
      test_lowest_failure_wins;
    Alcotest.test_case "pool reusable after a failed job" `Quick
      test_pool_reusable_after_failure;
    Alcotest.test_case "nested submission runs inline" `Quick
      test_nested_submission_inline;
    Alcotest.test_case "many successive jobs" `Quick test_many_successive_jobs;
    Alcotest.test_case "map_reduce folds in index order" `Quick
      test_map_reduce_order;
    Alcotest.test_case "deadline expiring mid-batch times out cleanly" `Quick
      test_timeout_mid_batch;
    Alcotest.test_case "shutdown is idempotent and final" `Quick test_shutdown;
    Alcotest.test_case "create validates domain count" `Quick
      test_create_validation;
  ]

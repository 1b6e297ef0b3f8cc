(* Batched-scheduler stress suite.

   The scheduling plan — chunk count, batch size, autotuned or fixed —
   is supposed to be invisible in the results: every sample owns its
   own split stream and result slot, so the estimate is a pure function
   of (seed, samples, f).  These tests drive the scheduler through the
   adversarial corners of that contract: degenerate chunkings, batches
   larger than the job, active fault plans at every domain count, and a
   starvation check that every domain of a pool actually claims work on
   a job big enough to share. *)

open Nanodec_numerics
open Nanodec_parallel
module Fault = Nanodec_fault.Fault
module Telemetry = Nanodec_telemetry.Telemetry

let estimate : Montecarlo.estimate Alcotest.testable =
  Alcotest.testable Montecarlo.pp ( = )

let integrand rng =
  let a = Rng.float rng in
  let b = Rng.gaussian rng in
  (a *. b) +. sin (5. *. a)

let run ~ctx ?(seed = 2009) samples =
  Montecarlo.run ~ctx
    (Montecarlo.spec (Montecarlo.fixed samples))
    (Rng.create ~seed) (Montecarlo.target integrand)

(* --- adversarial chunk/batch combinations --- *)

let ctx_fixed ?pool ?batch chunks =
  Run_ctx.make ?pool ~chunking:(Run_ctx.Fixed chunks) ?batch ()

let test_adversarial_chunking () =
  let samples = 97 in
  (* One pool-less, fixed-chunk reference; every scheduling shape must
     reproduce it bit-for-bit. *)
  let baseline = run ~ctx:(ctx_fixed 8) samples in
  let combos =
    [
      (1, 1);  (* single chunk: the whole job is one inline claim *)
      (2, 1);  (* fewer chunks than a 4-domain pool *)
      (2, 8);  (* batch larger than the whole job *)
      (samples, 1);  (* one sample per chunk, claimed one at a time *)
      (samples, 13);  (* one sample per chunk, ragged batches *)
      (300, 1);  (* chunks >> samples: most chunks are empty *)
      (300, 64);  (* empty chunks in big batches *)
      (7, 64);  (* batch much larger than the chunk count *)
      (64, 7);
    ]
  in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          List.iter
            (fun (chunks, batch) ->
              let what =
                Printf.sprintf "domains=%d chunks=%d batch=%d" domains chunks
                  batch
              in
              let ctx = ctx_fixed ~pool ~batch chunks in
              Alcotest.check estimate ("estimate " ^ what) baseline
                (run ~ctx samples))
            combos))
    [ 1; 4 ]

(* --- determinism under active fault plans, every domain count --- *)

let fault_spec = "seed=7;pool.chunk:crash:p=0.2;mc.sample_batch:crash:p=0.15"

let test_determinism_under_faults () =
  let samples = 300 in
  let baseline = run ~ctx:(ctx_fixed 16) samples in
  List.iter
    (fun domains ->
      List.iter
        (fun batch ->
          (* A fresh engine per run: the plan's decision streams restart
             so every (domains, batch) shape faces the same faults. *)
          let fault = Fault.create (Fault.parse_exn fault_spec) in
          let e =
            Run_ctx.with_ctx ~domains ~fault ~warn:false
              ~chunking:(Run_ctx.Fixed 16) ~batch (fun ctx -> run ~ctx samples)
          in
          Alcotest.check estimate
            (Printf.sprintf "faulted run, domains=%d batch=%d" domains batch)
            baseline e)
        [ 1; 3; 16 ])
    [ 1; 2; 4; 8 ]

(* --- no domain starves on a job big enough to share --- *)

let test_no_starvation () =
  let domains = 4 in
  let chunks = 96 in
  Pool.with_pool ~domains (fun pool ->
      let owner = Array.make chunks (-1) in
      (* Sleeping bodies release the CPU, so even a single-core host
         schedules every worker domain into the claim loop. *)
      Pool.parallel_for ~batch:2 pool ~chunks (fun i ->
          Unix.sleepf 0.002;
          owner.(i) <- (Domain.self () :> int));
      Alcotest.(check bool) "every chunk ran" true
        (Array.for_all (fun d -> d >= 0) owner);
      let distinct =
        List.length (List.sort_uniq compare (Array.to_list owner))
      in
      Alcotest.(check int)
        (Printf.sprintf "all %d domains claimed batches" domains)
        domains distinct)

(* --- batch accounting: claims are disjoint and exactly cover the job --- *)

let test_batch_accounting () =
  let sink = Telemetry.create () in
  Pool.with_pool ~domains:4 ~telemetry:sink (fun pool ->
      Pool.parallel_for ~batch:4 pool ~chunks:42 ignore);
  let counters = Telemetry.counters sink in
  let value name = Option.value ~default:0 (List.assoc_opt name counters) in
  (* ceil(42 / 4) = 11 claims, regardless of which domain won each. *)
  Alcotest.(check int) "pool.batches counts claims" 11 (value "pool.batches");
  Alcotest.(check int) "every chunk counted once" 42
    (value "pool.chunks.submitter" + value "pool.chunks.worker")

(* --- the autotuner's plans are always runnable --- *)

let test_autotune_plans () =
  let check_plan what ~samples (p : Autotune.plan) =
    Alcotest.(check bool)
      (what ^ ": 1 <= chunks <= samples")
      true
      (p.Autotune.chunks >= 1 && p.Autotune.chunks <= max 1 samples);
    Alcotest.(check bool) (what ^ ": batch >= 1") true (p.Autotune.batch >= 1)
  in
  (* Deterministic fallback across adversarial shapes. *)
  List.iter
    (fun (domains, samples) ->
      check_plan
        (Printf.sprintf "fallback domains=%d samples=%d" domains samples)
        ~samples
        (Autotune.plan ~domains ~samples ()))
    [ (1, 1); (1, 2); (64, 2); (64, 1_000_000); (0, 0); (-3, -7); (8, 4000) ];
  (* Measured path: calibrate a sink with a real instrumented estimate,
     then plan against its history. *)
  let sink = Telemetry.create () in
  Run_ctx.with_ctx ~telemetry:sink (fun ctx -> ignore (run ~ctx 2000));
  List.iter
    (fun samples ->
      let p = Autotune.plan ~telemetry:sink ~domains:4 ~samples () in
      check_plan
        (Printf.sprintf "measured samples=%d" samples)
        ~samples p;
      Alcotest.(check bool) "measured plans carry the cost" true
        (p.Autotune.per_sample_ns <> None))
    [ 2; 17; 4000; 1_000_000 ]

(* --- auto vs fixed: the Run_ctx chunking policy is value-invariant --- *)

let test_auto_equals_fixed () =
  let samples = 400 in
  let fixed =
    Run_ctx.with_ctx ~domains:4 ~chunking:(Run_ctx.Fixed 11) (fun ctx ->
        run ~ctx samples)
  in
  (* Auto, telemetry off (deterministic fallback)... *)
  let auto_cold = Run_ctx.with_ctx ~domains:4 (fun ctx -> run ~ctx samples) in
  (* ... and auto with a warm sink, where the measured cost model picks
     a machine-dependent plan — still the same bits. *)
  let sink = Telemetry.create () in
  let auto_warm =
    Run_ctx.with_ctx ~domains:4 ~telemetry:sink (fun ctx ->
        ignore (run ~ctx ~seed:1 samples);
        run ~ctx samples)
  in
  Alcotest.check estimate "auto (fallback) = fixed" fixed auto_cold;
  Alcotest.check estimate "auto (measured) = fixed" fixed auto_warm;
  let counters = Telemetry.counters sink in
  let value name = Option.value ~default:0 (List.assoc_opt name counters) in
  Alcotest.(check bool) "autotune decisions were recorded" true
    (value "pool.autotune.jobs" >= 2)

let suite =
  [
    Alcotest.test_case "adversarial chunk/batch combinations" `Quick
      test_adversarial_chunking;
    Alcotest.test_case "determinism under fault plans, domains 1/2/4/8"
      `Quick test_determinism_under_faults;
    Alcotest.test_case "no domain starves on a large job" `Quick
      test_no_starvation;
    Alcotest.test_case "batch claims exactly cover the job" `Quick
      test_batch_accounting;
    Alcotest.test_case "autotune plans are always runnable" `Quick
      test_autotune_plans;
    Alcotest.test_case "auto and fixed chunking are bit-identical" `Quick
      test_auto_equals_fixed;
  ]

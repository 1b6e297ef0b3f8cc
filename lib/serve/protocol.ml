open Nanodec_codes
open Nanodec_numerics
open Nanodec_crossbar
open Nanodec
module E = Nanodec_error
module Run_ctx = Nanodec_parallel.Run_ctx
module Fault = Nanodec_fault.Fault

(* A live view of the server's dispatch queue and snapshot clock,
   installed by the concurrent server so the [stats] and [shutdown]
   verbs can report scheduling state.  [None] (direct [handle_line]
   callers: tests, benches) reports the serial picture. *)
type batch_view = {
  window_s : float;
  max_batch : int;
  buffered : int;
  batches : int;
  fused_requests : int;
  flush_window : int;
  flush_full : int;
  flush_drain : int;
  size_p50 : int;
  size_max : int;
}

type scheduler = {
  max_inflight : int;
  max_queue : int;
  inflight : int;
  queued : int;
  shed : int;
  inline : int;
  snapshot_age_s : float option;
  batch : batch_view option;
}

type state = {
  artifacts : Artifacts.t;
  base : Run_ctx.t;
  (* Requests execute on worker threads, so the counters and the
     stopping latch are atomics rather than plain mutable fields. *)
  requests : int Atomic.t;
  errors : int Atomic.t;
  stopping : bool Atomic.t;
  mutable scheduler_probe : (unit -> scheduler) option;
}

let make_state ?(cache_enabled = true) ?(cache_capacity = 256) ~base () =
  {
    artifacts = Artifacts.create ~enabled:cache_enabled ~capacity:cache_capacity ();
    base;
    requests = Atomic.make 0;
    errors = Atomic.make 0;
    stopping = Atomic.make false;
    scheduler_probe = None;
  }

let artifacts state = state.artifacts
let base state = state.base
let requests state = Atomic.get state.requests
let errors state = Atomic.get state.errors
let stopping state = Atomic.get state.stopping
let set_scheduler_probe state probe = state.scheduler_probe <- probe

let scheduler_view state =
  match state.scheduler_probe with
  | Some probe -> probe ()
  | None ->
    {
      max_inflight = 1;
      max_queue = 0;
      inflight = 1;
      queued = 0;
      shed = 0;
      inline = 0;
      snapshot_age_s = None;
      batch = None;
    }

let known_verbs =
  [ "ping"; "evaluate"; "yield"; "sweep"; "codes"; "check"; "stats"; "shutdown" ]

(* --- request field access ---

   Every accessor is total and fails as [Invalid_input] naming the
   field, so the fuzz battery's bad values (floats where ints belong,
   negative seeds, zero sample counts) all map to the same JSON error
   kind the CLI maps them to on exit code 2. *)

let obj_field json name = Json.member name json

let int_field json name =
  match obj_field json name with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.to_int_opt v with
    | Some i -> Some i
    | None ->
      E.invalid_inputf ~hint:(Printf.sprintf "got %s" (Json.to_string v))
        "field %S must be an integer" name)

let float_field json name =
  match obj_field json name with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.to_float_opt v with
    | Some f -> Some f
    | None ->
      E.invalid_inputf ~hint:(Printf.sprintf "got %s" (Json.to_string v))
        "field %S must be a number" name)

let string_field json name =
  match obj_field json name with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.to_string_opt v with
    | Some s -> Some s
    | None ->
      E.invalid_inputf ~hint:(Printf.sprintf "got %s" (Json.to_string v))
        "field %S must be a string" name)

let bool_field json name =
  match obj_field json name with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.to_bool_opt v with
    | Some b -> Some b
    | None ->
      E.invalid_inputf ~hint:(Printf.sprintf "got %s" (Json.to_string v))
        "field %S must be a boolean" name)

(* --- the execution knobs of one request --- *)

type exec = {
  seed : int option;
  mc_samples : int option;
  timeout_s : float option;
  fault : Fault.t option;
  no_degrade : bool;
  chunking : Run_ctx.chunking option;
  mc_method : Run_ctx.mc_method option;
  rel_error : float option;
}

let no_exec =
  {
    seed = None;
    mc_samples = None;
    timeout_s = None;
    fault = None;
    no_degrade = false;
    chunking = None;
    mc_method = None;
    rel_error = None;
  }

let exec_of_json json =
  match obj_field json "exec" with
  | None | Some Json.Null -> no_exec
  | Some (Json.Obj _ as e) ->
    let seed = int_field e "seed" in
    Option.iter (E.check_seed ~what:"seed") seed;
    let mc_samples = int_field e "mc_samples" in
    Option.iter (E.check_mc_samples ~what:"mc_samples") mc_samples;
    let timeout_s = float_field e "timeout" in
    Option.iter (E.check_timeout_s ~what:"timeout") timeout_s;
    let fault =
      match string_field e "fault_plan" with
      | None -> None
      | Some spec -> Some (Fault.create (Fault.parse_exn spec))
    in
    let no_degrade = Option.value (bool_field e "no_degrade") ~default:false in
    let chunking =
      match obj_field e "chunks" with
      | None | Some Json.Null -> None
      | Some (Json.Int n) ->
        Some
          (match E.parse_chunks ~what:"chunks" (string_of_int n) with
          | `Auto -> Run_ctx.Auto
          | `Fixed n -> Run_ctx.Fixed n)
      | Some (Json.String s) ->
        Some
          (match E.parse_chunks ~what:"chunks" s with
          | `Auto -> Run_ctx.Auto
          | `Fixed n -> Run_ctx.Fixed n)
      | Some v ->
        E.invalid_inputf ~hint:(Printf.sprintf "got %s" (Json.to_string v))
          "field \"chunks\" must be 'auto' or a positive integer"
    in
    (* Same grammar and bounds as the CLI's --mc-method/--rel-error,
       through the same shared validators, so both surfaces reject bad
       values identically. *)
    let mc_method =
      match string_field e "method" with
      | None -> None
      | Some s ->
        Some
          (match E.parse_mc_method ~what:"method" s with
          | `Plain -> Run_ctx.Plain
          | `Antithetic -> Run_ctx.Antithetic
          | `Stratified k -> Run_ctx.Stratified k
          | `Importance f -> Run_ctx.Importance f)
    in
    let rel_error = float_field e "rel_error" in
    Option.iter (E.check_rel_error ~what:"rel_error") rel_error;
    {
      seed;
      mc_samples;
      timeout_s;
      fault;
      no_degrade;
      chunking;
      mc_method;
      rel_error;
    }
  | Some v ->
    E.invalid_inputf ~hint:(Printf.sprintf "got %s" (Json.to_string v))
      "field \"exec\" must be an object"

(* A request that injects faults, forbids degradation or carries a
   deadline must actually execute: serving its pooled work from the
   result cache would skip the very failure semantics it asked for. *)
let bypasses_result_cache exec =
  exec.fault <> None || exec.no_degrade || exec.timeout_s <> None

let with_request_ctx state exec f =
  Run_ctx.with_request ~base:state.base ?seed:exec.seed
    ?mc_samples:exec.mc_samples ?timeout_s:exec.timeout_s ?fault:exec.fault
    ?chunking:exec.chunking ?mc_method:exec.mc_method ?rel_error:exec.rel_error
    ~degrade:(not exec.no_degrade) ~warn:false f

(* --- design parameters --- *)

let code_type_field json =
  match string_field json "code" with
  | None -> Codebook.Balanced_gray
  | Some s -> (
    match Codebook.of_name s with
    | Some ct -> ct
    | None ->
      E.invalid_inputf ~hint:"known families: TC, GC, BGC, HC, AHC"
        "unknown code type %S" s)

let params_of_json json =
  match obj_field json "params" with
  | None | Some Json.Null -> Json.Obj []
  | Some (Json.Obj _ as p) -> p
  | Some v ->
    E.invalid_inputf ~hint:(Printf.sprintf "got %s" (Json.to_string v))
      "field \"params\" must be an object"

let spec_of_params params =
  let code_type = code_type_field params in
  let code_length = Option.value (int_field params "length") ~default:10 in
  E.check_int_range ~what:"length" ~min:1 ~max:64 code_length;
  let radix = Option.value (int_field params "radix") ~default:2 in
  E.check_int_range ~what:"radix" ~min:2 ~max:16 radix;
  let n_wires = Option.value (int_field params "wires") ~default:20 in
  E.check_int_range ~what:"wires" ~min:1 ~max:10_000 n_wires;
  let raw_bits =
    Option.value (int_field params "raw_bits") ~default:(16 * 1024 * 8)
  in
  E.check_int_range ~what:"raw_bits" ~min:1 ~max:1_000_000_000 raw_bits;
  (match Codebook.validate_length ~radix ~length:code_length code_type with
  | Ok () -> ()
  | Error msg -> E.fail (E.Invalid_input { what = msg; hint = None }));
  let base = { Design.default_spec with Design.raw_bits } in
  Design.spec ~base ~radix ~n_wires ~code_type ~code_length ()

(* --- request preparation ---

   Each request line is parsed, validated and keyed exactly once, on
   arrival; admission (is it warm?), batch fusion (what would it
   compute?) and execution all read the one [request] that results.
   Preparation never touches the artifact cache and never runs MC work.
   A line that fails to parse or validate prepares into its error, so
   execution renders the same error bytes (with the same precedence:
   verb, exec, params, then the verb's own parameters) that a one-shot
   parse-and-run would. *)

(* The Monte-Carlo identity of an [evaluate] (with [mc_samples]) or a
   [yield]: the seed and sampling spec its request context derives, and
   the estimate's cache key. *)
type mc = {
  seed : int;
  samples : int;
  spec : Montecarlo.spec;
  tagged : bool;
      (* opted into [method]/[rel_error]: spec-keyed, and the response
         carries the method tag (legacy responses stay golden-stable) *)
  est_key : string;
}

type work =
  | Ping
  | Evaluate of { design : Design.spec; report_key : string; mc : mc option }
  | Yield of { design : Design.spec; analysis_key : string; mc : mc }
  | Sweep
  | Codes
  | Check
  | Stats
  | Shutdown

type ready = {
  id : Json.t;
  verb : string;
  exec : exec;
  params : Json.t;
  work : work;
}

type request = Ready of ready | Rejected of { id : Json.t; err : E.t }

let classify_exn exn =
  match Errors.classify exn with
  | Some err -> err
  | None ->
    (* A genuine bug — but a daemon must answer, not die.  The detail
       keeps the exception text so the bug is findable. *)
    E.internal (Printexc.to_string exn)

let mc_of state (exec : exec) ~samples config_key =
  (* The seed and spec come from the same [Run_ctx.with_request] the
     execution derives its context with — minus the fault plan and the
     degrade policy, which only choose the pool (so this never builds
     one) and never change the numbers. *)
  let seed, spec =
    Run_ctx.with_request ~base:state.base ?seed:exec.seed
      ?mc_samples:exec.mc_samples ?chunking:exec.chunking
      ?mc_method:exec.mc_method ?rel_error:exec.rel_error ~warn:false
      (fun ctx -> (Run_ctx.seed ctx, Montecarlo.spec_of_ctx ~ctx ~samples ()))
  in
  let tagged = exec.mc_method <> None || exec.rel_error <> None in
  {
    seed;
    samples;
    spec;
    tagged;
    est_key =
      Artifacts.estimate_key ~seed ~samples
        ?spec:(if tagged then Some spec else None)
        config_key;
  }

let prepare_obj state ~id json =
  let verb =
    match string_field json "verb" with
    | Some v -> v
    | None ->
      E.invalid_inputf
        ~hint:("known verbs: " ^ String.concat ", " known_verbs)
        "request has no \"verb\" field"
  in
  let exec = exec_of_json json in
  let params = params_of_json json in
  let work =
    match verb with
    | "ping" -> Ping
    | "evaluate" ->
      let design = spec_of_params params in
      let config_key = Cave.config_key design.Design.cave in
      Evaluate
        {
          design;
          report_key =
            Artifacts.report_key ~raw_bits:design.Design.raw_bits config_key;
          mc =
            Option.map
              (fun samples -> mc_of state exec ~samples config_key)
              exec.mc_samples;
        }
    | "yield" ->
      let design = spec_of_params params in
      let config_key = Cave.config_key design.Design.cave in
      let samples = Option.value exec.mc_samples ~default:1000 in
      Yield
        {
          design;
          analysis_key = Artifacts.analysis_key config_key;
          mc = mc_of state exec ~samples config_key;
        }
    | "sweep" -> Sweep
    | "codes" -> Codes
    | "check" -> Check
    | "stats" -> Stats
    | "shutdown" -> Shutdown
    | v ->
      E.invalid_inputf
        ~hint:("known verbs: " ^ String.concat ", " known_verbs)
        "unknown verb %S" v
  in
  { id; verb; exec; params; work }

let prepare state line =
  match Json.parse line with
  | Error msg ->
    Rejected
      {
        id = Json.Null;
        err = E.Invalid_input { what = "malformed JSON request"; hint = Some msg };
      }
  | Ok (Json.Obj _ as json) -> (
    let id = Option.value (Json.member "id" json) ~default:Json.Null in
    match prepare_obj state ~id json with
    | r -> Ready r
    | exception exn -> Rejected { id; err = classify_exn exn })
  | Ok v ->
    Rejected
      {
        id = Json.Null;
        err =
          E.Invalid_input
            {
              what = "request must be a JSON object";
              hint = Some (Printf.sprintf "got %s" (Json.to_string v));
            };
      }

(* Warm: every artifact key a fully cached answer reads is resident. *)
let warm state request =
  let resident = List.for_all (Artifact_cache.mem state.artifacts) in
  match request with
  | Rejected _ -> false
  | Ready r when bypasses_result_cache r.exec -> false
  | Ready r -> (
    match r.work with
    | Evaluate { report_key; mc = None; _ } -> resident [ report_key ]
    | Evaluate { report_key; mc = Some mc; _ } -> resident [ report_key; mc.est_key ]
    | Yield { analysis_key; mc; _ } -> resident [ analysis_key; mc.est_key ]
    | Ping | Sweep | Codes | Check | Stats | Shutdown -> false)

(* --- batch fusion classification ---

   A request is fusable when its MC work is a pure fixed-count estimate
   the batch layer can precompute: an MC-bearing verb ([yield], or
   [evaluate] with [mc_samples]), no cache bypass (fault plan,
   no_degrade, deadline — those must execute their own failure
   semantics), and fixed stopping (request or base context — adaptive
   rounds cannot share a fan-out).  The plan carries the prepared
   estimate identity, so the fused result lands on the very cache key
   the request's own execution looks up. *)

type fuse_plan = {
  fuse_key : string;  (* the estimate's artifact-cache key *)
  fuse_seed : int;
  fuse_samples : int;
  fuse_spec : Montecarlo.spec;  (* always fixed stopping *)
  fuse_config : Cave.config;
}

let plan_of = function
  | Ready
      {
        exec;
        work = Evaluate { design; mc = Some mc; _ } | Yield { design; mc; _ };
        _;
      }
    when not (bypasses_result_cache exec) -> (
    match mc.spec.Montecarlo.stopping with
    | Montecarlo.Fixed_samples _ ->
      Some
        {
          fuse_key = mc.est_key;
          fuse_seed = mc.seed;
          fuse_samples = mc.samples;
          fuse_spec = mc.spec;
          fuse_config = design.Design.cave;
        }
    | Montecarlo.Until_rel_error _ -> None)
  | _ -> None

let classify_fusable state line = plan_of (prepare state line)

(* Fused results ride to [run_estimate] as a key-indexed overlay: a hit
   is installed through the cache's own [find_or_build] accounting, so
   hit/miss counters and [cached] flags match serial execution. *)
type overlay = (string, Montecarlo.estimate) Hashtbl.t

(* --- response rendering ---

   Responses carry no wall-clock, pid or host fields: a response is a
   pure function of the request, which is what makes the CI smoke
   goldens and the concurrent-soak byte-equality test possible. *)

(* [?spec] appends the sampling-method tag only when the request opted
   into one, so legacy requests keep byte-identical responses (the CI
   smoke goldens). *)
let estimate_json ~seed ?spec (e : Montecarlo.estimate) =
  Json.Obj
    ([
       ("mean", Json.Float e.Montecarlo.mean);
       ("std_error", Json.Float e.Montecarlo.std_error);
       ("ci95_low", Json.Float e.Montecarlo.ci95_low);
       ("ci95_high", Json.Float e.Montecarlo.ci95_high);
       ("samples", Json.Int e.Montecarlo.samples);
       ("seed", Json.Int seed);
     ]
    @
    match spec with
    | None -> []
    | Some s ->
      [ ("method", Json.String (Montecarlo.strategy_name s.Montecarlo.strategy)) ])

let report_json (r : Design.report) =
  let spec = r.Design.spec in
  let cave = spec.Design.cave in
  Json.Obj
    [
      ("code", Json.String (Codebook.name cave.Cave.code_type));
      ("radix", Json.Int cave.Cave.radix);
      ("length", Json.Int cave.Cave.code_length);
      ("wires", Json.Int cave.Cave.n_wires);
      ("raw_bits", Json.Int spec.Design.raw_bits);
      ("omega", Json.Int r.Design.omega);
      ("phi", Json.Int r.Design.phi);
      ("phi_per_wire", Json.Float r.Design.phi_per_wire);
      ("sigma_norm1", Json.Float r.Design.sigma_norm1);
      ("average_nu", Json.Float r.Design.average_nu);
      ("max_nu", Json.Int r.Design.max_nu);
      ("pattern_transitions", Json.Int r.Design.pattern_transitions);
      ("cave_yield", Json.Float r.Design.cave_yield);
      ("crossbar_yield", Json.Float r.Design.crossbar_yield);
      ("effective_bits", Json.Float r.Design.effective_bits);
      ("bit_area", Json.Float r.Design.bit_area);
      ("area", Json.Float r.Design.area);
      ("n_pads", Json.Int r.Design.n_pads);
      ("removed_wires", Json.Int r.Design.removed_wires);
    ]

(* The ok envelope, spliced around the already-rendered result bytes —
   byte-for-byte what [Json.to_string] renders for the same object. *)
let ok_line ~id ~verb ~cached result =
  String.concat ""
    [
      {|{"id":|};
      Json.to_string id;
      {|,"status":"ok","verb":|};
      Json.to_string (Json.String verb);
      {|,"cached":|};
      string_of_bool cached;
      {|,"result":|};
      result;
      "}";
    ]

let error_response ~id err =
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "error");
      ("kind", Json.String (E.label err));
      ("exit_code", Json.Int (E.exit_code err));
      ( "message",
        Json.String
          (match err with
          | E.Invalid_input { what; _ } -> what
          | E.Timeout { site; seconds } -> (
            match seconds with
            | Some s -> Printf.sprintf "%s timed out after %gs" site s
            | None -> Printf.sprintf "%s was cancelled" site)
          | E.Worker_crash { site; detail; injected } ->
            Printf.sprintf "%s crashed%s: %s" site
              (if injected then " (injected)" else "")
              detail
          | E.Degraded { site; reason } ->
            Printf.sprintf "%s refused to degrade: %s" site reason
          | E.Overloaded { site; pending; limit } ->
            Printf.sprintf "%s shed the request: %d pending (limit %d)"
              site pending limit
          | E.Internal { detail } -> detail) );
      ( "hint",
        match err with
        | E.Invalid_input { hint = Some h; _ } -> Json.String h
        | _ -> Json.Null );
    ]

(* --- verbs --- *)

let run_estimate ?overlay state ~exec ~ctx mc config =
  let build () =
    Artifacts.mc_estimate state.artifacts ~ctx ~seed:mc.seed ~spec:mc.spec
      ~samples:mc.samples config
  in
  if bypasses_result_cache exec then (build (), false)
  else
    (* A fused run already produced this request's bits; the one cache
       round installs them with serial hit/miss accounting. *)
    let fused = Option.bind overlay (fun tbl -> Hashtbl.find_opt tbl mc.est_key) in
    Artifacts.estimate_with state.artifacts ~key:mc.est_key ~build:(fun () ->
        match fused with Some e -> e | None -> build ())

(* The result bytes of a response.  A fully cached answer is a pure
   function of the artifact keys it read, so its bytes are kept beside
   the last of them and spliced back on the next identical hit instead
   of re-rendered; the lookups before this still ran, so hit/miss
   accounting and recency are exactly the re-rendering path's. *)
let render_result state ~key ~view ~cached render =
  if not cached then Json.to_string (render ())
  else
    match Artifact_cache.rendered state.artifacts ~key ~view with
    | Some bytes -> bytes
    | None ->
      let bytes = Json.to_string (render ()) in
      Artifact_cache.set_rendered state.artifacts ~key ~view bytes;
      bytes

let mc_json mc estimate =
  estimate_json ~seed:mc.seed
    ?spec:(if mc.tagged then Some mc.spec else None)
    estimate

let run_evaluate ?overlay state ~exec ~design ~report_key mc =
  let report, report_hit = Artifacts.report ~key:report_key state.artifacts design in
  match mc with
  | None ->
    ( render_result state ~key:report_key ~view:"evaluate" ~cached:report_hit
        (fun () -> report_json report),
      report_hit )
  | Some mc ->
    with_request_ctx state exec @@ fun ctx ->
    let estimate, est_hit =
      run_estimate ?overlay state ~exec ~ctx mc design.Design.cave
    in
    let cached = report_hit && est_hit in
    ( render_result state ~key:mc.est_key ~view:report_key ~cached (fun () ->
          match report_json report with
          | Json.Obj fields -> Json.Obj (fields @ [ ("mc", mc_json mc estimate) ])
          | other -> other),
      cached )

let run_yield ?overlay state ~exec ~design ~analysis_key mc =
  with_request_ctx state exec @@ fun ctx ->
  let config = design.Design.cave in
  let analysis, analysis_hit =
    Artifacts.analysis ~key:analysis_key state.artifacts config
  in
  let estimate, est_hit = run_estimate ?overlay state ~exec ~ctx mc config in
  ( render_result state ~key:mc.est_key ~view:"yield"
      ~cached:(analysis_hit && est_hit) (fun () ->
        Json.Obj
          [
            ("analytic_yield", Json.Float analysis.Cave.yield);
            ("mc", mc_json mc estimate);
          ]),
    est_hit )

let sweep_row_json (r : Design.report) =
  let cave = r.Design.spec.Design.cave in
  Json.Obj
    [
      ("code", Json.String (Codebook.name cave.Cave.code_type));
      ("radix", Json.Int cave.Cave.radix);
      ("length", Json.Int cave.Cave.code_length);
      ("phi", Json.Int r.Design.phi);
      ("crossbar_yield", Json.Float r.Design.crossbar_yield);
      ("effective_bits", Json.Float r.Design.effective_bits);
      ("bit_area", Json.Float r.Design.bit_area);
    ]

let run_sweep state params =
  let code_type = code_type_field params in
  let code_length = Option.value (int_field params "length") ~default:10 in
  let spec =
    spec_of_params
      (Json.Obj
         [
           ("code", Json.String (Codebook.name code_type));
           ("length", Json.Int code_length);
           ( "radix",
             Json.Int (Option.value (int_field params "radix") ~default:2) );
           ( "wires",
             Json.Int (Option.value (int_field params "wires") ~default:20) );
           ( "raw_bits",
             Json.Int
               (Option.value (int_field params "raw_bits")
                  ~default:(16 * 1024 * 8)) );
         ])
  in
  let reports, hit = Artifacts.sweep state.artifacts spec in
  (Json.Obj [ ("rows", Json.List (List.map sweep_row_json reports)) ], hit)

let run_codes state params =
  let code_type = code_type_field params in
  let code_length = Option.value (int_field params "length") ~default:10 in
  E.check_int_range ~what:"length" ~min:1 ~max:64 code_length;
  let radix = Option.value (int_field params "radix") ~default:2 in
  E.check_int_range ~what:"radix" ~min:2 ~max:16 radix;
  let count = Option.value (int_field params "count") ~default:16 in
  E.check_int_range ~what:"count" ~min:1 ~max:1_000_000 count;
  (match Codebook.validate_length ~radix ~length:code_length code_type with
  | Ok () -> ()
  | Error msg -> E.fail (E.Invalid_input { what = msg; hint = None }));
  let words, hit =
    Artifacts.words state.artifacts ~radix ~length:code_length ~count code_type
  in
  ( Json.Obj
      [
        ("code", Json.String (Codebook.name code_type));
        ( "omega",
          Json.Int (Codebook.space_size ~radix ~length:code_length code_type) );
        ( "words",
          Json.List (List.map (fun w -> Json.String (Word.to_string w)) words)
        );
      ],
    hit )

let run_check params =
  let open Nanodec_proptest in
  let seed = int_field params "seed" in
  Option.iter (E.check_seed ~what:"seed") seed;
  let count = Option.value (int_field params "count") ~default:25 in
  E.check_int_range ~what:"count" ~min:1 ~max:10_000 count;
  let reports = Property.run_suite ?seed ~count Oracles.all in
  let failures =
    List.filter_map
      (fun r ->
        match r.Property.outcome with
        | Property.Pass _ -> None
        | Property.Fail f ->
          Some
            (Json.Obj
               [
                 ("name", Json.String (Property.name r.Property.property));
                 ("seed", Json.Int f.Property.seed);
                 ("case_index", Json.Int f.Property.case_index);
                 ("counterexample", Json.String f.Property.counterexample);
                 ( "message",
                   match f.Property.message with
                   | Some m -> Json.String m
                   | None -> Json.Null );
               ])
        )
      reports
  in
  Json.Obj
    [
      ("seed", Json.Int (Property.effective_seed seed));
      ("count", Json.Int count);
      ("properties", Json.Int (List.length reports));
      ("failed", Json.Int (List.length failures));
      ("failures", Json.List failures);
    ]

let run_stats state =
  let s = Artifact_cache.stats state.artifacts in
  let sched = scheduler_view state in
  Json.Obj
    [
      ("requests", Json.Int (Atomic.get state.requests));
      ("errors", Json.Int (Atomic.get state.errors));
      ( "serve",
        Json.Obj
          [
            ("max_inflight", Json.Int sched.max_inflight);
            ("max_queue", Json.Int sched.max_queue);
            ("inflight", Json.Int sched.inflight);
            ("queued", Json.Int sched.queued);
            ("shed", Json.Int sched.shed);
            ("inline", Json.Int sched.inline);
            ( "snapshot_age_s",
              match sched.snapshot_age_s with
              | Some a -> Json.Float a
              | None -> Json.Null );
            ( "batch",
              match sched.batch with
              | None -> Json.Null
              | Some b ->
                Json.Obj
                  [
                    ("window_ms", Json.Float (b.window_s *. 1000.));
                    ("max_batch", Json.Int b.max_batch);
                    ("buffered", Json.Int b.buffered);
                    ("batches", Json.Int b.batches);
                    ("fused_requests", Json.Int b.fused_requests);
                    ("flush_window", Json.Int b.flush_window);
                    ("flush_full", Json.Int b.flush_full);
                    ("flush_drain", Json.Int b.flush_drain);
                    ("size_p50", Json.Int b.size_p50);
                    ("size_max", Json.Int b.size_max);
                  ] );
          ] );
      ( "cache",
        Json.Obj
          [
            ("capacity", Json.Int s.Artifact_cache.capacity);
            ("entries", Json.Int s.Artifact_cache.entries);
            ("hits", Json.Int s.Artifact_cache.hits);
            ("misses", Json.Int s.Artifact_cache.misses);
            ("evictions", Json.Int s.Artifact_cache.evictions);
            ("build_s", Json.Float s.Artifact_cache.build_s);
            ("saved_s", Json.Float s.Artifact_cache.saved_s);
          ] );
      ( "keys",
        Json.List
          (List.map
             (fun k -> Json.String (Artifact_cache.digest k))
             (Artifact_cache.keys state.artifacts)) );
    ]

(* --- execution --- *)

let run ?overlay state r =
  match r.work with
  | Ping -> ({|{"pong":true}|}, false)
  | Evaluate { design; report_key; mc } ->
    run_evaluate ?overlay state ~exec:r.exec ~design ~report_key mc
  | Yield { design; analysis_key; mc } ->
    run_yield ?overlay state ~exec:r.exec ~design ~analysis_key mc
  | Sweep ->
    let result, hit = run_sweep state r.params in
    (Json.to_string result, hit)
  | Codes ->
    let result, hit = run_codes state r.params in
    (Json.to_string result, hit)
  | Check -> (Json.to_string (run_check r.params), false)
  | Stats -> (Json.to_string (run_stats state), false)
  | Shutdown ->
    Atomic.set state.stopping true;
    (* What the drain will have to finish: every other in-flight
       request plus everything still queued (this request is the
       [- 1]).  [shed] is the admission-control reject count so far —
       the split between served-before-stopping and refused load. *)
    let sched = scheduler_view state in
    ( Json.to_string
        (Json.Obj
           [
             ("stopping", Json.Bool true);
             ("draining", Json.Int (max 0 (sched.inflight - 1) + sched.queued));
             ("shed", Json.Int sched.shed);
           ]),
      false )

let error_line err = Json.to_string (error_response ~id:Json.Null err)

let execute ?overlay state request =
  Atomic.incr state.requests;
  let id, outcome =
    match request with
    | Rejected { id; err } -> (id, Error err)
    | Ready r -> (
      match run ?overlay state r with
      | result, cached -> (r.id, Ok (ok_line ~id:r.id ~verb:r.verb ~cached result))
      | exception exn -> (r.id, Error (classify_exn exn)))
  in
  match outcome with
  | Ok line -> line
  | Error err ->
    Atomic.incr state.errors;
    Json.to_string (error_response ~id err)

let handle_line ?overlay state line = execute ?overlay state (prepare state line)

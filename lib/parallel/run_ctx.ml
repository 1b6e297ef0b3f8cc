module Telemetry = Nanodec_telemetry.Telemetry
module Fault = Nanodec_fault.Fault

type chunking = Auto | Fixed of int

type mc_method =
  | Plain
  | Antithetic
  | Stratified of int
  | Importance of float

type t = {
  pool : Pool.t option;
  seed : int;
  mc_samples : int;
  telemetry : Telemetry.sink option;
  fault : Fault.t option;
  timeout_s : float option;
  cancel : Pool.Cancel.t option;
  chunking : chunking;
  batch : int option;
  mc_method : mc_method;
  rel_error : float option;
  owns_pool : bool;  (* [make ~domains] spawned it, [shutdown] joins it *)
}

let default_seed = 2009
let default_mc_samples = 4000

let sequential =
  {
    pool = None;
    seed = default_seed;
    mc_samples = default_mc_samples;
    telemetry = None;
    fault = None;
    timeout_s = None;
    cancel = None;
    chunking = Auto;
    batch = None;
    mc_method = Plain;
    rel_error = None;
    owns_pool = false;
  }

(* Shared by [make] and [with_request], so both surfaces reject the new
   Monte-Carlo knobs with identical messages. *)
let check_mc_knobs ~who ~mc_method ~rel_error ~batch =
  (match mc_method with
  | Stratified k when k < 2 ->
    invalid_arg (who ^ ": Stratified strata must be >= 2")
  | Importance s when (not (s > 0.)) || s = infinity ->
    invalid_arg (who ^ ": Importance shift must be positive and finite")
  | Plain | Antithetic | Stratified _ | Importance _ -> ());
  (match rel_error with
  | Some r when (not (r > 0.)) || r > 0.5 ->
    invalid_arg (who ^ ": rel_error must be in (0, 0.5]")
  | Some _ | None -> ());
  match batch with
  | Some b when b < 1 -> invalid_arg (who ^ ": batch must be >= 1")
  | Some _ | None -> ()

let make ?domains ?pool ?(seed = default_seed)
    ?(mc_samples = default_mc_samples) ?telemetry ?fault ?timeout_s ?cancel
    ?(chunking = Auto) ?batch ?(mc_method = Plain) ?rel_error ?max_retries
    ?degrade ?warn () =
  if mc_samples < 0 then invalid_arg "Run_ctx.make: mc_samples must be >= 0";
  (match timeout_s with
  | Some s when s <= 0. ->
    invalid_arg "Run_ctx.make: timeout_s must be positive"
  | Some _ | None -> ());
  (match chunking with
  | Fixed n when n < 1 ->
    invalid_arg "Run_ctx.make: Fixed chunking must be >= 1"
  | Fixed _ | Auto -> ());
  check_mc_knobs ~who:"Run_ctx.make" ~mc_method ~rel_error ~batch;
  (* The environment plan activates here and only here: contexts are the
     chaos boundary.  Direct [Pool] users (tests, benches) stay
     injection-free even when [NANODEC_FAULT_PLAN] is exported. *)
  let fault = match fault with Some _ as f -> f | None -> Fault.of_env () in
  (* Injected faults are telemetry-recorded whenever the run has a
     sink, without the caller wiring the two by hand. *)
  (match fault, telemetry with
  | Some f, Some _ -> Fault.set_telemetry f telemetry
  | _ -> ());
  let pool, owns_pool =
    match pool, domains with
    | Some _, Some _ ->
      invalid_arg "Run_ctx.make: ~domains and ~pool are mutually exclusive"
    | Some p, None ->
      (* Borrowed pool: route its scheduler probes into this context's
         sink (the caller keeps ownership and shutdown duty). *)
      (match telemetry with
      | Some _ -> Pool.set_telemetry p telemetry
      | None -> ());
      (match fault with
      | Some _ -> Pool.set_fault p fault
      | None -> ());
      (Some p, false)
    | None, Some d ->
      ( Some
          (Pool.create ~domains:d ?telemetry ?fault ?max_retries ?degrade
             ?warn ()),
        true )
    | None, None -> (None, false)
  in
  {
    pool;
    seed;
    mc_samples;
    telemetry;
    fault;
    timeout_s;
    cancel;
    chunking;
    batch;
    mc_method;
    rel_error;
    owns_pool;
  }

let shutdown t = if t.owns_pool then Option.iter Pool.shutdown t.pool

let with_ctx ?domains ?pool ?seed ?mc_samples ?telemetry ?fault ?timeout_s
    ?cancel ?chunking ?batch ?mc_method ?rel_error ?max_retries ?degrade ?warn
    f =
  let t =
    make ?domains ?pool ?seed ?mc_samples ?telemetry ?fault ?timeout_s
      ?cancel ?chunking ?batch ?mc_method ?rel_error ?max_retries ?degrade
      ?warn ()
  in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let pool t = t.pool
let seed t = t.seed
let mc_samples t = t.mc_samples
let telemetry t = t.telemetry
let fault t = t.fault
let timeout_s t = t.timeout_s
let cancel t = t.cancel
let chunking t = t.chunking
let batch t = t.batch
let mc_method t = t.mc_method
let rel_error t = t.rel_error

let map_list t f xs =
  Pool.map_list_opt ?timeout_s:t.timeout_s ?cancel:t.cancel t.pool f xs

let with_request ~base ?seed ?mc_samples ?timeout_s ?fault ?chunking
    ?mc_method ?rel_error ?(degrade = true) ?(warn = true) f =
  let seed = Option.value seed ~default:base.seed in
  let mc_samples = Option.value mc_samples ~default:base.mc_samples in
  let chunking = Option.value chunking ~default:base.chunking in
  let mc_method = Option.value mc_method ~default:base.mc_method in
  let rel_error =
    match rel_error with Some _ as r -> r | None -> base.rel_error
  in
  (* Deadlines inherit like every other knob: a request without its own
     timeout still runs under the base context's safety net. *)
  let timeout_s =
    match timeout_s with Some _ as t -> t | None -> base.timeout_s
  in
  if mc_samples < 0 then
    invalid_arg "Run_ctx.with_request: mc_samples must be >= 0";
  (match timeout_s with
  | Some s when s <= 0. ->
    invalid_arg "Run_ctx.with_request: timeout_s must be positive"
  | Some _ | None -> ());
  (match chunking with
  | Fixed n when n < 1 ->
    invalid_arg "Run_ctx.with_request: Fixed chunking must be >= 1"
  | Fixed _ | Auto -> ());
  check_mc_knobs ~who:"Run_ctx.with_request" ~mc_method ~rel_error
    ~batch:base.batch;
  match fault, degrade with
  | None, true ->
    (* The common shape: borrow the base context's pool and sink
       untouched — nothing is mutated on the shared pool, so any number
       of requests can derive from one base without interfering. *)
    f
      {
        base with
        seed;
        mc_samples;
        timeout_s;
        chunking;
        mc_method;
        rel_error;
        owns_pool = false;
      }
  | _ ->
    (* A request-specific fault plan (or a fail-closed degrade policy)
       must never touch the shared pool: an exhausted retry budget
       poisons a pool permanently, and [Pool.set_fault] has no restore
       discipline.  Such requests get a private pool of the same width,
       joined before the reply; results are bit-for-bit identical by
       the pool's determinism contract. *)
    let domains = match base.pool with Some p -> Pool.domains p | None -> 1 in
    with_ctx ~domains ~seed ~mc_samples ?telemetry:base.telemetry ?fault
      ?timeout_s ~chunking ?batch:base.batch ~mc_method ?rel_error ~degrade
      ~warn f

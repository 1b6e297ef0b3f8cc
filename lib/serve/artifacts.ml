open Nanodec_codes
open Nanodec_numerics
open Nanodec_crossbar
open Nanodec
module E = Nanodec_error

type value =
  | Words of Word.t list
  | Nu of Imatrix.t
  | Analysis of Cave.analysis
  | Kernel of Kernel.t
  | Report of Design.report
  | Estimate of Montecarlo.estimate
  | Sweep of Design.report list

type t = value Artifact_cache.t

(* Bump the version whenever [value] (or anything reachable from it)
   changes shape: the snapshot loader refuses mismatched schemas, so a
   stale on-disk cache degrades to a cold start instead of feeding
   [Marshal] bytes of the wrong type. *)
let snapshot_schema = "nanodec-artifacts-v1"

let create ?enabled ~capacity () = Artifact_cache.create ?enabled ~capacity ()

(* Key prefixes keep the kinds disjoint, so a key can only ever map to
   one variant; a mismatch is an internal invariant violation, never a
   user error. *)
let unwrap_error ~key ~wanted =
  E.fail
    (E.internal
       (Printf.sprintf "artifact cache kind mismatch for %s (wanted %s)" key
          wanted))

let words cache ~radix ~length ~count ct =
  let key =
    Printf.sprintf "%s|k=%d" (Codebook.cache_key ~radix ~length ct) count
  in
  match
    Artifact_cache.find_or_build cache ~key (fun () ->
        Words (Codebook.sequence ~radix ~length ~count ct))
  with
  | Words ws, hit -> (ws, hit)
  | _ -> unwrap_error ~key ~wanted:"words"

let nu cache pattern =
  let key = "nu|" ^ Nanodec_mspt.Pattern.cache_key pattern in
  match
    Artifact_cache.find_or_build cache ~key (fun () ->
        Nu (Nanodec_mspt.Variability.nu_matrix pattern))
  with
  | Nu m, hit -> (m, hit)
  | _ -> unwrap_error ~key ~wanted:"nu"

(* The per-design keys take the configuration's canonical
   [Cave.config_key] rather than the configuration, so a caller deriving
   several keys of one design serializes it once. *)
let analysis_key config_key = "analysis|" ^ config_key

let analysis ?key cache config =
  let key =
    match key with
    | Some k -> k
    | None -> analysis_key (Cave.config_key config)
  in
  match
    Artifact_cache.find_or_build cache ~key (fun () ->
        let pattern =
          Nanodec_mspt.Pattern.of_codebook ~radix:config.Cave.radix
            ~length:config.Cave.code_length ~n_wires:config.Cave.n_wires
            config.Cave.code_type
        in
        let nu, _ = nu cache pattern in
        Analysis (Cave.analyze ~nu config))
  with
  | Analysis a, hit -> (a, hit)
  | _ -> unwrap_error ~key ~wanted:"analysis"

let kernel cache config =
  let key = "kernel|" ^ Cave.config_key config in
  match
    Artifact_cache.find_or_build cache ~key (fun () ->
        let a, _ = analysis cache config in
        Kernel (Cave.kernel_of_analysis a))
  with
  | Kernel k, hit -> (k, hit)
  | _ -> unwrap_error ~key ~wanted:"kernel"

let report_key ~raw_bits config_key =
  Printf.sprintf "report|raw=%d|%s" raw_bits config_key

let report ?key cache spec =
  let key =
    match key with
    | Some k -> k
    | None ->
      report_key ~raw_bits:spec.Design.raw_bits
        (Cave.config_key spec.Design.cave)
  in
  match
    Artifact_cache.find_or_build cache ~key (fun () ->
        Report (Design.evaluate spec))
  with
  | Report r, hit -> (r, hit)
  | _ -> unwrap_error ~key ~wanted:"report"

(* A spec'd key replaces the plain [samples=] component: strategy and
   stopping rule are part of the estimate's identity, and the
   serialization is injective, so distinct specs never collide — with
   each other or with the legacy plain keys. *)
let estimate_key ~seed ~samples ?spec config_key =
  match spec with
  | None ->
    Printf.sprintf "estimate|seed=%d|samples=%d|%s" seed samples config_key
  | Some spec ->
    Printf.sprintf "estimate|seed=%d|%s|%s" seed (Montecarlo.spec_key spec)
      config_key

(* One cache round for a precomputed (or about-to-be-computed) estimate:
   [find_or_build] keeps the hit/miss accounting — and therefore the
   [cached] flags of batched responses — exactly what serial unbatched
   execution would produce. *)
let estimate_with cache ~key ~build =
  match
    Artifact_cache.find_or_build cache ~key (fun () -> Estimate (build ()))
  with
  | Estimate e, hit -> (e, hit)
  | _ -> unwrap_error ~key ~wanted:"estimate"

let mc_estimate cache ~ctx ~seed ~spec ~samples config =
  let a, _ = analysis cache config in
  let k, _ = kernel cache config in
  Cave.mc_yield_window ~ctx ~spec ~kernel:k (Rng.create ~seed) ~samples a

let sweep cache spec =
  let key =
    Printf.sprintf "sweep|raw=%d|%s" spec.Design.raw_bits
      (Cave.config_key spec.Design.cave)
  in
  match
    Artifact_cache.find_or_build cache ~key (fun () ->
        Sweep (Optimizer.sweep ~spec ()))
  with
  | Sweep rows, hit -> (rows, hit)
  | _ -> unwrap_error ~key ~wanted:"sweep"

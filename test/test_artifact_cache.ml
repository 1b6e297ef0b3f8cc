(* The serve daemon's content-addressed LRU cache, proven correct two
   ways: unit tests of the LRU mechanics (eviction order, recency
   refresh, disabled pass-through, failure safety) and two
   property-based oracles on the lib/proptest engine —

   - [cache_hit ≡ cache_miss]: an arbitrary request sequence through an
     enabled cache (any capacity, including the eviction-heavy
     capacity-1 case) returns exactly the values the disabled
     (always-cold) cache returns, and

   - [cache_key injective on params]: distinct design parameters never
     collide in [Cave.config_key] / [Pattern.cache_key] /
     [Codebook.cache_key], which is what makes serving from the cache
     provably safe.

   These live here rather than in [Oracles.all] because the proptest
   library sits below the serve/crossbar layers in the dependency
   order; the engine is used directly. *)

open Nanodec_codes
open Nanodec_crossbar
open Nanodec_mspt
open Nanodec_serve
open Nanodec_proptest

let check_outcome = function
  | Property.Pass _ -> ()
  | Property.Fail f ->
    Alcotest.failf "%s" (Format.asprintf "%a" Property.pp_failure f)

(* --- LRU mechanics --- *)

let test_miss_then_hit () =
  let cache = Artifact_cache.create ~capacity:4 () in
  let builds = ref 0 in
  let build () = incr builds; 42 in
  let v1, hit1 = Artifact_cache.find_or_build cache ~key:"a" build in
  let v2, hit2 = Artifact_cache.find_or_build cache ~key:"a" build in
  Alcotest.(check int) "same value" v1 v2;
  Alcotest.(check bool) "first is a miss" false hit1;
  Alcotest.(check bool) "second is a hit" true hit2;
  Alcotest.(check int) "built exactly once" 1 !builds

let test_lru_eviction_order () =
  let cache = Artifact_cache.create ~capacity:2 () in
  let get k = Artifact_cache.find_or_build cache ~key:k (fun () -> k) in
  ignore (get "a");
  ignore (get "b");
  ignore (get "c");
  (* a was least recently used *)
  Alcotest.(check bool) "a evicted" false (Artifact_cache.mem cache "a");
  Alcotest.(check bool) "b survives" true (Artifact_cache.mem cache "b");
  Alcotest.(check bool) "c survives" true (Artifact_cache.mem cache "c");
  Alcotest.(check int) "one eviction" 1
    (Artifact_cache.stats cache).Artifact_cache.evictions

let test_recency_refresh () =
  let cache = Artifact_cache.create ~capacity:2 () in
  let get k = Artifact_cache.find_or_build cache ~key:k (fun () -> k) in
  ignore (get "a");
  ignore (get "b");
  ignore (get "a");
  (* refresh: b is now the LRU *)
  ignore (get "c");
  Alcotest.(check bool) "a survives (refreshed)" true
    (Artifact_cache.mem cache "a");
  Alcotest.(check bool) "b evicted" false (Artifact_cache.mem cache "b");
  Alcotest.(check (list string)) "MRU order" [ "c"; "a" ]
    (Artifact_cache.keys cache)

let test_disabled_passthrough () =
  let cache = Artifact_cache.create ~enabled:false ~capacity:8 () in
  let builds = ref 0 in
  let get () =
    Artifact_cache.find_or_build cache ~key:"k" (fun () -> incr builds; !builds)
  in
  let v1, h1 = get () in
  let v2, h2 = get () in
  Alcotest.(check bool) "never a hit" false (h1 || h2);
  Alcotest.(check (pair int int)) "every call builds" (1, 2) (v1, v2);
  Alcotest.(check int) "stores nothing" 0 (Artifact_cache.length cache);
  Alcotest.(check int) "counts misses" 2
    (Artifact_cache.stats cache).Artifact_cache.misses

let test_capacity_validated () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Artifact_cache.create: capacity must be >= 1")
    (fun () -> ignore (Artifact_cache.create ~capacity:0 ()))

let test_failed_build_stores_nothing () =
  let cache = Artifact_cache.create ~capacity:4 () in
  (try
     ignore
       (Artifact_cache.find_or_build cache ~key:"boom" (fun () ->
            failwith "builder exploded"))
   with Failure _ -> ());
  Alcotest.(check bool) "nothing stored" false
    (Artifact_cache.mem cache "boom");
  let v, hit =
    Artifact_cache.find_or_build cache ~key:"boom" (fun () -> 7)
  in
  Alcotest.(check (pair int bool)) "recovers on retry" (7, false) (v, hit)

let test_stats_accounting () =
  let cache = Artifact_cache.create ~capacity:2 () in
  let get k = Artifact_cache.find_or_build cache ~key:k (fun () -> k) in
  ignore (get "a");
  ignore (get "a");
  ignore (get "b");
  ignore (get "c");
  let s = Artifact_cache.stats cache in
  Alcotest.(check int) "hits" 1 s.Artifact_cache.hits;
  Alcotest.(check int) "misses" 3 s.Artifact_cache.misses;
  Alcotest.(check int) "entries" 2 s.Artifact_cache.entries;
  Alcotest.(check int) "capacity" 2 s.Artifact_cache.capacity;
  Alcotest.(check bool) "saved_s is a sum of non-negative costs" true
    (s.Artifact_cache.saved_s >= 0.)

let test_clear () =
  let cache = Artifact_cache.create ~capacity:4 () in
  ignore (Artifact_cache.find_or_build cache ~key:"a" (fun () -> 1));
  Artifact_cache.clear cache;
  Alcotest.(check int) "empty" 0 (Artifact_cache.length cache);
  Alcotest.(check (list string)) "no keys" [] (Artifact_cache.keys cache)

(* --- oracle: cache_hit ≡ cache_miss ---

   A request sequence is a list of keys over a small alphabet (so
   repeats and evictions actually happen).  The builder is a pure
   function of the key; the enabled cache (capacity drawn from 1..4,
   capacity 1 being the all-eviction degenerate case) must return
   exactly what the disabled cache returns at every step. *)

let hit_equiv_miss_prop =
  let gen =
    let open Gen in
    let* capacity = int_range 1 4 in
    let+ keys = list (elements [ "a"; "b"; "c"; "d"; "e"; "f" ]) in
    (capacity, keys)
  in
  let print (capacity, keys) =
    Printf.sprintf "capacity=%d keys=[%s]" capacity (String.concat ";" keys)
  in
  Property.make ~name:"serve: cache_hit = cache_miss (incl. capacity 1)"
    ~print gen (fun (capacity, keys) ->
      let build k = String.uppercase_ascii k ^ string_of_int (String.length k) in
      let hot = Artifact_cache.create ~capacity () in
      let cold = Artifact_cache.create ~enabled:false ~capacity () in
      List.for_all
        (fun k ->
          let vh, _ = Artifact_cache.find_or_build hot ~key:k (fun () -> build k) in
          let vc, hit_cold =
            Artifact_cache.find_or_build cold ~key:k (fun () -> build k)
          in
          vh = vc && not hit_cold)
        keys)

let test_hit_equiv_miss_oracle () =
  check_outcome (Property.run ~seed:2009 ~count:200 hit_equiv_miss_prop)

(* ... and the same invariant on the real artifact layer: a report and
   an estimate served twice through [Artifacts] are bit-for-bit the
   value the cold path computes. *)

let test_artifacts_hit_equiv_cold () =
  let open Nanodec in
  Nanodec_parallel.Run_ctx.with_ctx ~domains:2 @@ fun ctx ->
  let cache = Artifacts.create ~capacity:8 () in
  let spec =
    Design.spec ~code_type:Codebook.Balanced_gray ~code_length:8 ()
  in
  let cold_report = Design.evaluate spec in
  let r1, h1 = Artifacts.report cache spec in
  let r2, h2 = Artifacts.report cache spec in
  Alcotest.(check (pair bool bool)) "miss then hit" (false, true) (h1, h2);
  Alcotest.(check bool) "cached report ≡ cold report" true
    (r1 = cold_report && r2 = cold_report);
  let config = spec.Design.cave in
  let cold_analysis = Cave.analyze config in
  let cold_estimate =
    Cave.mc_yield_window ~ctx
      (Nanodec_numerics.Rng.create ~seed:7)
      ~samples:400 cold_analysis
  in
  let estimate () =
    Artifacts.estimate_with cache
      ~key:(Artifacts.estimate_key ~seed:7 ~samples:400 (Cave.config_key config))
      ~build:(fun () ->
        Artifacts.mc_estimate cache ~ctx ~seed:7
          ~spec:(Nanodec_numerics.Montecarlo.spec_of_ctx ~ctx ~samples:400 ())
          ~samples:400 config)
  in
  let e1, eh1 = estimate () in
  let e2, eh2 = estimate () in
  Alcotest.(check (pair bool bool)) "estimate miss then hit" (false, true)
    (eh1, eh2);
  Alcotest.(check bool) "cached estimate ≡ cold estimate" true
    (e1 = cold_estimate && e2 = cold_estimate)

(* --- dump/restore + snapshot persistence --- *)

let test_dump_restore_roundtrip () =
  let cache = Artifact_cache.create ~capacity:4 () in
  let get k = Artifact_cache.find_or_build cache ~key:k (fun () -> k ^ "!") in
  ignore (get "a");
  ignore (get "b");
  ignore (get "c");
  ignore (get "a");
  (* recency now: a (MRU), c, b (LRU) — dump is LRU-first *)
  let dumped = List.map (fun (k, _, v) -> (k, v)) (Artifact_cache.dump cache) in
  Alcotest.(check (list (pair string string)))
    "dump is LRU-first with the stored values"
    [ ("b", "b!"); ("c", "c!"); ("a", "a!") ]
    dumped;
  let fresh = Artifact_cache.create ~capacity:4 () in
  Artifact_cache.restore fresh (Artifact_cache.dump cache);
  Alcotest.(check (list string)) "restore reproduces the recency chain"
    (Artifact_cache.keys cache) (Artifact_cache.keys fresh);
  let s = Artifact_cache.stats fresh in
  Alcotest.(check (pair int int)) "restore is not a workload" (0, 0)
    (s.Artifact_cache.hits, s.Artifact_cache.misses);
  (* The restored chain behaves: one more insert evicts the restored
     LRU, not anything recent. *)
  let tight = Artifact_cache.create ~capacity:3 () in
  Artifact_cache.restore tight (Artifact_cache.dump cache);
  ignore (Artifact_cache.find_or_build tight ~key:"d" (fun () -> "d!"));
  Alcotest.(check bool) "restored LRU evicted first" false
    (Artifact_cache.mem tight "b")

let test_restore_into_smaller_cache_keeps_mru () =
  let cache = Artifact_cache.create ~capacity:4 () in
  let get k = Artifact_cache.find_or_build cache ~key:k (fun () -> k) in
  List.iter (fun k -> ignore (get k)) [ "a"; "b"; "c"; "d" ];
  let small = Artifact_cache.create ~capacity:2 () in
  Artifact_cache.restore small (Artifact_cache.dump cache);
  Alcotest.(check (list string)) "keeps the most recently used tail"
    [ "d"; "c" ] (Artifact_cache.keys small)

let with_tmp_snapshot k =
  let path = Filename.temp_file "nanodec-test-snapshot" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> k path)

let entries_testable =
  Alcotest.(list (triple string (float 0.) string))

let test_snapshot_save_load_roundtrip () =
  with_tmp_snapshot @@ fun path ->
  let entries =
    [ ("alpha", 0.5, "payload one"); ("beta\nwith newline", 0., "\x00binary\xff") ]
  in
  (match Snapshot.save ~path ~schema:"test-v1" entries with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save failed: %s" msg);
  (match Snapshot.load ~path ~schema:"test-v1" with
  | Ok got -> Alcotest.check entries_testable "load ≡ save" entries got
  | Error msg -> Alcotest.failf "load failed: %s" msg);
  match Snapshot.load ~path ~schema:"test-v2" with
  | Ok (_ : (string * float * string) list) ->
    Alcotest.fail "schema mismatch must not load"
  | Error msg ->
    Alcotest.(check bool) "schema mismatch is reported" true
      (String.length msg > 0)

let test_snapshot_missing_file_is_cold () =
  match Snapshot.load ~path:"/nonexistent/nanodec.snap" ~schema:"test-v1" with
  | Ok ([] : (string * float * string) list) -> ()
  | Ok _ -> Alcotest.fail "a missing file cannot hold entries"
  | Error msg -> Alcotest.failf "missing file must be a cold start, got: %s" msg

let test_snapshot_rejects_every_corruption () =
  (* Exhaustive single-byte battery: whatever byte is mutilated —
     header, count, lengths, keys, payload, checksum — the loader must
     return [Error], never entries and never a crash.  Plus the whole-
     file mutilations the daemon test exercises end to end. *)
  with_tmp_snapshot @@ fun path ->
  let entries = [ ("key-a", 1.5, "value-a"); ("key-b", 0.25, "value-b") ] in
  (match Snapshot.save ~path ~schema:"test-v1" entries with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save failed: %s" msg);
  let ic = open_in_bin path in
  let pristine = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let reload bytes =
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc;
    (Snapshot.load ~path ~schema:"test-v1"
      : ((string * float * string) list, string) result)
  in
  String.iteri
    (fun i c ->
      let mutated = Bytes.of_string pristine in
      Bytes.set mutated i (Char.chr (Char.code c lxor 0x01));
      match reload (Bytes.to_string mutated) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bit flip at byte %d went undetected" i)
    pristine;
  List.iter
    (fun (what, bytes) ->
      match reload bytes with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s went undetected" what)
    [
      ("truncation", String.sub pristine 0 (String.length pristine / 2));
      ("zero fill", String.make (String.length pristine) '\000');
      ("trailing garbage", pristine ^ "x");
      ("empty file", "");
    ];
  (* And the pristine bytes still load after all that. *)
  match reload pristine with
  | Ok got -> Alcotest.check entries_testable "pristine still loads" entries got
  | Error msg -> Alcotest.failf "pristine bytes rejected: %s" msg

(* --- oracle: snapshot save→load ≡ identity --- *)

let snapshot_roundtrip_prop =
  let gen =
    let open Gen in
    let key =
      let+ chars = list (elements [ 'a'; 'b'; 'z'; '0'; '\n'; '\000'; '|' ]) in
      String.init (List.length chars) (List.nth chars)
    in
    (* Exactly representable costs, so structural equality is exact. *)
    let cost = elements [ 0.; 0.5; 1.25; 1e9 ] in
    let value =
      let+ words = list (elements [ "yield"; "\x00\xff"; ""; "mspt" ]) in
      String.concat "/" words
    in
    list (triple key cost value)
  in
  let print entries =
    String.concat ";"
      (List.map (fun (k, c, v) -> Printf.sprintf "(%S,%g,%S)" k c v) entries)
  in
  Property.make ~name:"serve: snapshot save→load ≡ identity" ~print gen
    (fun entries ->
      let path = Filename.temp_file "nanodec-prop-snapshot" ".bin" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          match Snapshot.save ~path ~schema:"prop-v1" entries with
          | Error _ -> false
          | Ok () -> (
            match Snapshot.load ~path ~schema:"prop-v1" with
            | Ok got -> got = entries
            | Error _ -> false)))

let test_snapshot_roundtrip_oracle () =
  check_outcome (Property.run ~seed:2009 ~count:100 snapshot_roundtrip_prop)

(* --- oracle: cache keys are injective on design parameters --- *)

let config_gen =
  let open Gen in
  let* radix = elements [ 2; 3 ] in
  let* code_type =
    elements
      (if radix = 2 then [ Codebook.Tree; Codebook.Gray; Codebook.Hot ]
       else [ Codebook.Tree; Codebook.Gray ])
  in
  let* code_length = int_range 2 8 in
  let* n_wires = int_range 2 12 in
  let* sigma_t = elements [ 0.03; 0.05; 0.07 ] in
  let* margin_fraction = elements [ 0.3; 0.42 ] in
  let+ supply_voltage = elements [ 0.9; 1.0 ] in
  {
    Cave.default_config with
    Cave.radix;
    code_type;
    code_length;
    n_wires;
    sigma_t;
    margin_fraction;
    supply_voltage;
  }

let key_injective_prop =
  let gen = Gen.pair config_gen config_gen in
  let print (a, b) =
    Printf.sprintf "%s\nvs\n%s" (Cave.config_key a) (Cave.config_key b)
  in
  Property.make ~name:"serve: cache_key injective on design params" ~print gen
    (fun (a, b) ->
      let keys_equal = String.equal (Cave.config_key a) (Cave.config_key b) in
      keys_equal = (a = b))

let test_key_injective_oracle () =
  check_outcome (Property.run ~seed:2009 ~count:300 key_injective_prop)

let test_component_keys_injective () =
  (* The pattern and codebook keys the artifact layer composes from
     must distinguish every parameter they claim to cover. *)
  let p1 = Pattern.of_codebook ~radix:2 ~length:6 ~n_wires:4 Codebook.Gray in
  let p2 = Pattern.of_codebook ~radix:2 ~length:6 ~n_wires:5 Codebook.Gray in
  let p3 =
    Pattern.of_codebook ~radix:2 ~length:6 ~n_wires:4 Codebook.Tree
  in
  Alcotest.(check bool) "pattern keys differ across wires" false
    (String.equal (Pattern.cache_key p1) (Pattern.cache_key p2));
  Alcotest.(check bool) "pattern keys differ across families" false
    (String.equal (Pattern.cache_key p1) (Pattern.cache_key p3));
  Alcotest.(check bool) "pattern key stable on equal params" true
    (String.equal (Pattern.cache_key p1)
       (Pattern.cache_key
          (Pattern.of_codebook ~radix:2 ~length:6 ~n_wires:4 Codebook.Gray)));
  let ck = Codebook.cache_key in
  Alcotest.(check bool) "codebook keys differ across lengths" false
    (String.equal
       (ck ~radix:2 ~length:6 Codebook.Gray)
       (ck ~radix:2 ~length:7 Codebook.Gray));
  Alcotest.(check bool) "codebook keys differ across radix" false
    (String.equal
       (ck ~radix:2 ~length:6 Codebook.Tree)
       (ck ~radix:3 ~length:6 Codebook.Tree))

(* Rendered bytes ride beside an entry: a pure probe that moves no
   counter, at most four views per entry, gone with the entry, never
   part of a dump. *)
let test_rendered_bytes_follow_their_entry () =
  let cache = Artifact_cache.create ~capacity:2 () in
  let get k = ignore (Artifact_cache.find_or_build cache ~key:k (fun () -> k)) in
  get "a";
  Artifact_cache.set_rendered cache ~key:"a" ~view:"v" "bytes-a";
  Artifact_cache.set_rendered cache ~key:"absent" ~view:"v" "ignored";
  Alcotest.(check (option string)) "stored beside the entry" (Some "bytes-a")
    (Artifact_cache.rendered cache ~key:"a" ~view:"v");
  Alcotest.(check (option string)) "other views are separate" None
    (Artifact_cache.rendered cache ~key:"a" ~view:"w");
  Alcotest.(check (option string)) "nothing stored for an absent key" None
    (Artifact_cache.rendered cache ~key:"absent" ~view:"v");
  let s = Artifact_cache.stats cache in
  Alcotest.(check (pair int int)) "probes move no counter" (0, 1)
    (s.Artifact_cache.hits, s.Artifact_cache.misses);
  List.iter
    (fun v -> Artifact_cache.set_rendered cache ~key:"a" ~view:v ("bytes-" ^ v))
    [ "1"; "2"; "3"; "4" ];
  Alcotest.(check (list (option string))) "the four newest views are kept"
    [ None; Some "bytes-1"; Some "bytes-4" ]
    (List.map
       (fun v -> Artifact_cache.rendered cache ~key:"a" ~view:v)
       [ "v"; "1"; "4" ]);
  Alcotest.(check (list (pair string string))) "never dumped" [ ("a", "a") ]
    (List.map (fun (k, _, v) -> (k, v)) (Artifact_cache.dump cache));
  get "b";
  get "c";
  get "a";
  Alcotest.(check (option string)) "evicted with the entry, not rebuilt" None
    (Artifact_cache.rendered cache ~key:"a" ~view:"4")

let suite =
  [
    Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "recency refresh" `Quick test_recency_refresh;
    Alcotest.test_case "disabled cache is a counted pass-through" `Quick
      test_disabled_passthrough;
    Alcotest.test_case "capacity < 1 rejected" `Quick test_capacity_validated;
    Alcotest.test_case "failed build stores nothing" `Quick
      test_failed_build_stores_nothing;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "oracle: cache_hit = cache_miss" `Quick
      test_hit_equiv_miss_oracle;
    Alcotest.test_case "artifacts: hit = cold, bit for bit" `Quick
      test_artifacts_hit_equiv_cold;
    Alcotest.test_case "dump/restore round trip" `Quick
      test_dump_restore_roundtrip;
    Alcotest.test_case "restore into a smaller cache keeps the MRU tail"
      `Quick test_restore_into_smaller_cache_keeps_mru;
    Alcotest.test_case "snapshot save/load round trip" `Quick
      test_snapshot_save_load_roundtrip;
    Alcotest.test_case "snapshot: missing file is a cold start" `Quick
      test_snapshot_missing_file_is_cold;
    Alcotest.test_case "snapshot rejects every corruption" `Quick
      test_snapshot_rejects_every_corruption;
    Alcotest.test_case "oracle: snapshot save→load ≡ identity" `Quick
      test_snapshot_roundtrip_oracle;
    Alcotest.test_case "oracle: config_key injective" `Quick
      test_key_injective_oracle;
    Alcotest.test_case "component keys injective" `Quick
      test_component_keys_injective;
    Alcotest.test_case "rendered bytes follow their entry" `Quick
      test_rendered_bytes_follow_their_entry;
  ]

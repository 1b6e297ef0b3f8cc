(* The benchmark's own accounting: the exact percentile rule and
   due-time latency in the open loop. *)

open Nanobench

let failures = ref 0

let check what cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" what
  end

let percentile_rule () =
  let up_to n = Array.init n (fun i -> float_of_int (i + 1)) in
  let p50 = Samples.percentile ~p:0.5 (up_to 100) in
  check "p50 of 1..100 is 50" (p50.value = 50. && p50.n = 100 && p50.beyond = 50);
  let p99 = Samples.percentile ~p:0.99 (up_to 1000) in
  check "p99 of 1000 samples has 10 beyond" (p99.value = 990. && p99.beyond = 10 && Samples.valid p99);
  check "p99 of 999 samples is unreportable" (not (Samples.valid (Samples.percentile ~p:0.99 (up_to 999))));
  check "p95 of 200 samples has 10 beyond" (Samples.valid (Samples.percentile ~p:0.95 (up_to 200)));
  check "p95 of 199 samples is unreportable" (not (Samples.valid (Samples.percentile ~p:0.95 (up_to 199))));
  check "needed p99 = 1000" (Samples.needed ~p:0.99 = 1000);
  check "needed p95 = 200" (Samples.needed ~p:0.95 = 200);
  check "no samples, no percentile" (not (Samples.valid (Samples.percentile ~p:0.5 [||])));
  let shuffled = [| 5.; 1.; 4.; 2.; 3. |] in
  check "percentile sorts" ((Samples.percentile ~p:0.5 shuffled).value = 3.);
  (* Three blocks, one hit by a burst: the median block ignores it. *)
  let burst = Array.concat [ Array.make 1000 1.; Array.make 1000 2.; Array.make 1000 100. ] in
  let b = Samples.blocked ~p:0.99 ~size:1000 burst in
  check "blocked p99 is the median block's" (b.value = 2. && b.blocks = 3 && b.n = 3000);
  check "each block keeps 10 beyond" (b.beyond = 10 && Samples.valid b);
  check "too few for one block is unreportable"
    (not (Samples.valid (Samples.blocked ~p:0.99 ~size:1000 (up_to 999))))

(* An echo peer: answers every line immediately with the line itself. *)
let echo fd =
  let c = Conn.of_fd fd in
  try
    while true do
      Conn.send c (Conn.read_line c ^ "\n")
    done
  with _ -> Conn.close c

let stalled_generator () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let peer = Thread.create echo b in
  let conn = Conn.of_fd a in
  let start = Clock.now () +. 0.01 in
  let period = 0.002 and stall_at = 10 and stall = 0.06 in
  let arrivals =
    Array.init 40 (fun i ->
        let line = Printf.sprintf "{\"id\":%d}\n" i in
        { Loadgen.due = start +. (float_of_int i *. period);
          reqs = [ { Loadgen.id = i; line; cls = Loadgen.Hit; key = 0 } ] })
  in
  let late = Samples.create () in
  let seen = Array.make 40 None in
  Loadgen.open_loop
    ~stall:(fun k -> if k = stall_at then Unix.sleepf stall)
    [| Loadgen.lane conn arrivals |]
    ~late
    ~on_response:(fun req ~due ~sent ~recv response ->
      check "response matches request" (response ^ "\n" = req.line);
      seen.(req.id) <- Some (recv -. due, sent -. due));
  Conn.close conn;
  Thread.join peer;
  check "every request answered" (Array.for_all Option.is_some seen);
  let lat i = fst (Option.get seen.(i)) and late_of i = snd (Option.get seen.(i)) in
  check "the stalled send is late by the stall" (late_of stall_at >= stall);
  check "the stall shows up as latency" (lat stall_at >= stall);
  check "requests due during the stall wait from their due time"
    (lat (stall_at + 5) >= stall -. (5. *. period));
  check "latency counts from due time, not send time"
    (Array.for_all (function Some (l, lt) -> l >= lt | None -> false) seen);
  check "the stall reaches late p99" ((Report.pct ~p:0.99 late).value >= stall)

let () =
  percentile_rule ();
  stalled_generator ();
  if !failures > 0 then exit 1;
  print_endline "nanobench: accounting tests passed"

(* Single-threaded load generation: a closed loop on one connection and
   an open loop that multiplexes several connections with select.

   Timestamps are monotonic seconds ([Clock]).  In the open loop a request's
   latency runs from the moment it was {e due}, not the moment it was
   written, so a generator that falls behind its schedule shows the
   wait it imposed as latency (and as lateness, [sent - due]). *)

type cls = Hit | Miss

type req = {
  id : int;
  line : string;  (* the request line, newline included *)
  cls : cls;
  key : int;  (* which expected response this request must produce *)
}

type on_response = req -> due:float -> sent:float -> recv:float -> string -> unit

let now = Clock.now

(* Send [next i] for i = 0, 1, ... one at a time until [continue i]
   is false. *)
let closed_loop conn ~next ~continue ~(on_response : on_response) =
  let rec go i =
    if continue i then begin
      let req = next i in
      let sent = now () in
      Conn.send conn req.line;
      let response = Conn.read_line conn in
      let recv = now () in
      on_response req ~due:sent ~sent ~recv response;
      go (i + 1)
    end
  in
  go 0

(* One scheduled arrival: its requests are written back to back. *)
type arrival = { due : float; reqs : req list }

type lane = {
  conn : Conn.t;
  arrivals : arrival array;  (* in due order *)
  mutable next : int;
  inflight : (req * float * float) Queue.t;  (* req, due, sent *)
}

let lane conn arrivals = { conn; arrivals; next = 0; inflight = Queue.create () }

(* [count] Poisson arrival times over [0, seconds): a Poisson process
   conditioned on its count, so a seed changes when requests arrive but
   not how many do. *)
let poisson_times rng ~count ~seconds =
  let gaps = Array.init (count + 1) (fun _ -> -.log (1. -. Random.State.float rng 1.)) in
  for i = 1 to count do
    gaps.(i) <- gaps.(i) +. gaps.(i - 1)
  done;
  List.init count (fun i -> seconds *. gaps.(i) /. gaps.(count))

(* Run every lane's schedule to completion and wait for all responses
   (at most [drain_s] after the last send).  [late] receives
   [sent - due] for each arrival.  [stall k] runs just before arrival
   [k] (counted across lanes) is sent — a hook for the generator's own
   tests, which stall it on purpose. *)
let open_loop ?(stall = fun _ -> ()) ?(drain_s = 60.) lanes ~late
    ~(on_response : on_response) =
  let sent_count = ref 0 in
  let pending () =
    Array.exists
      (fun l -> l.next < Array.length l.arrivals || not (Queue.is_empty l.inflight))
      lanes
  in
  let last_send = ref (now ()) in
  while pending () do
    let t = now () in
    Array.iter
      (fun l ->
        while l.next < Array.length l.arrivals && l.arrivals.(l.next).due <= now () do
          let a = l.arrivals.(l.next) in
          stall !sent_count;
          incr sent_count;
          let sent = now () in
          Conn.send l.conn (String.concat "" (List.map (fun r -> r.line) a.reqs));
          Samples.add late (sent -. a.due);
          List.iter (fun r -> Queue.push (r, a.due, sent) l.inflight) a.reqs;
          l.next <- l.next + 1;
          last_send := sent
        done)
      lanes;
    let next_due =
      Array.fold_left
        (fun acc l ->
          if l.next < Array.length l.arrivals then Float.min acc l.arrivals.(l.next).due
          else acc)
        infinity lanes
    in
    if next_due = infinity && t -. !last_send > drain_s then
      failwith "open loop: responses still missing after the drain deadline";
    let timeout = Float.max 0. (Float.min 0.5 (next_due -. now ())) in
    let fds = Array.to_list (Array.map (fun l -> Conn.fd l.conn) lanes) in
    let readable, _, _ =
      try Unix.select fds [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iter
      (fun l ->
        if List.mem (Conn.fd l.conn) readable then begin
          let lines = Conn.read_available l.conn in
          let recv = now () in
          List.iter
            (fun response ->
              match Queue.take_opt l.inflight with
              | Some (req, due, sent) -> on_response req ~due ~sent ~recv response
              | None -> failwith ("open loop: unsolicited response " ^ response))
            lines
        end)
      lanes
  done

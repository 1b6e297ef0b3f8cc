(* In-memory spans for the per-layer probe.

   A span records its name, start, end, parent and request id; nothing
   is written until the run ends.  An aggregate span stands for [count]
   back-to-back calls too short to time one by one without the clock
   dominating (Monte-Carlo draws): its duration is the sum of theirs.
   A span's self time is its duration minus the time its children
   cover. *)

type span = {
  sid : int;
  name : string;
  rid : int;  (* request id; -1 outside any replayed request *)
  parent : int;  (* parent span id; -1 for a root *)
  start : float;
  stop : float;
  count : int;  (* calls this span stands for; 1 unless aggregate *)
}

type t = { mutable spans : span list; mutable next : int; mutable stack : (int * int) list }

let create () = { spans = []; next = 0; stack = [] }
let now = Clock.now

let fresh t =
  let sid = t.next in
  t.next <- sid + 1;
  sid

let current t = match t.stack with (sid, rid) :: _ -> (sid, rid) | [] -> (-1, -1)

(* [with_span t ?rid name f] times [f ()] as a child of the innermost
   open span (inheriting its request id unless [rid] is given). *)
let with_span t ?rid name f =
  let parent, prid = current t in
  let rid = Option.value rid ~default:prid in
  let sid = fresh t in
  t.stack <- (sid, rid) :: t.stack;
  let start = now () in
  let finish () =
    let stop = now () in
    t.stack <- List.tl t.stack;
    t.spans <- { sid; name; rid; parent; start; stop; count = 1 } :: t.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Record [count] calls totalling [dur] seconds under the innermost
   open span, ending now. *)
let aggregate t name ~dur ~count =
  let parent, rid = current t in
  let stop = now () in
  t.spans <-
    { sid = fresh t; name; rid; parent; start = stop -. dur; stop; count } :: t.spans

let spans t = List.rev t.spans

(* Durations of the spans called [name] in requests from [min_rid] on. *)
let durations t name ~min_rid =
  Array.of_list
    (List.filter_map
       (fun s -> if s.name = name && s.rid >= min_rid then Some (s.stop -. s.start) else None)
       t.spans)

(* Length of the union of [intervals]. *)
let cover intervals =
  let sorted = List.sort compare intervals in
  let rec go acc cur = function
    | [] -> ( match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
      match cur with
      | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
      | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest
      | None -> go acc (Some (a, b)) rest)
  in
  go 0. None sorted

(* Per span name: (total self time, total count, total duration), over
   the spans whose request id satisfies [rid]. *)
let self_times ?(rid = fun _ -> true) t =
  let spans = List.filter (fun s -> rid s.rid) (spans t) in
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent s) spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let covered =
        cover (List.map (fun c -> (c.start, c.stop)) (Hashtbl.find_all kids s.sid))
      in
      let self, n, d = Option.value (Hashtbl.find_opt totals s.name) ~default:(0., 0, 0.) in
      Hashtbl.replace totals s.name (self +. Float.max 0. (dur -. covered), n + s.count, d +. dur))
    spans;
  totals

let write t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"sid\":%d,\"name\":%S,\"rid\":%d,\"parent\":%d,\"start\":%.9f,\"end\":%.9f,\"count\":%d}\n"
        s.sid s.name s.rid s.parent s.start s.stop s.count)
    (spans t)

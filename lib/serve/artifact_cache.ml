type 'v node = {
  key : string;
  value : 'v;
  cost_s : float;
  mutable rendered : (string * string) list;
      (* (view, bytes) pairs stored beside the value, newest first *)
  mutable prev : 'v node option;  (* towards most recently used *)
  mutable next : 'v node option;  (* towards least recently used *)
}

type 'v t = {
  enabled : bool;
  capacity : int;
  table : (string, 'v node) Hashtbl.t;
  mutable mru : 'v node option;
  mutable lru : 'v node option;
  mutable entries : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable build_s : float;
  mutable saved_s : float;
  mutex : Mutex.t;
}

type stats = {
  capacity : int;
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
  build_s : float;
  saved_s : float;
}

let create ?(enabled = true) ~capacity () =
  if capacity < 1 then
    invalid_arg "Artifact_cache.create: capacity must be >= 1";
  {
    enabled;
    capacity;
    table = Hashtbl.create (min capacity 64);
    mru = None;
    lru = None;
    entries = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    build_s = 0.;
    saved_s = 0.;
    mutex = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* --- recency list (callers hold the mutex) --- *)

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.mru <- node.next);
  (match node.next with
  | Some nx -> nx.prev <- node.prev
  | None -> t.lru <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.mru;
  node.prev <- None;
  (match t.mru with Some m -> m.prev <- Some node | None -> ());
  t.mru <- Some node;
  if t.lru = None then t.lru <- Some node

let evict_lru t =
  match t.lru with
  | None -> ()
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table node.key;
    t.entries <- t.entries - 1;
    t.evictions <- t.evictions + 1

let insert t ~key ~cost_s value =
  (match Hashtbl.find_opt t.table key with
  | Some old ->
    (* A racing builder stored first; replace so the caller's value is
       the one future hits see (both are equal — builders are pure). *)
    unlink t old;
    Hashtbl.remove t.table key;
    t.entries <- t.entries - 1
  | None -> ());
  let node = { key; value; cost_s; rendered = []; prev = None; next = None } in
  Hashtbl.replace t.table key node;
  push_front t node;
  t.entries <- t.entries + 1;
  while t.entries > t.capacity do
    evict_lru t
  done

let lookup t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    t.hits <- t.hits + 1;
    t.saved_s <- t.saved_s +. node.cost_s;
    unlink t node;
    push_front t node;
    Some node.value
  | None ->
    t.misses <- t.misses + 1;
    None

(* --- public API --- *)

let find_or_build t ~key build =
  let cached =
    if not t.enabled then begin
      locked t (fun () -> t.misses <- t.misses + 1);
      None
    end
    else locked t (fun () -> lookup t key)
  in
  match cached with
  | Some v -> (v, true)
  | None ->
    let t0 = Unix.gettimeofday () in
    let v = build () in
    let cost_s = Unix.gettimeofday () -. t0 in
    if t.enabled then
      locked t (fun () ->
          t.build_s <- t.build_s +. cost_s;
          insert t ~key ~cost_s v)
    else locked t (fun () -> t.build_s <- t.build_s +. cost_s);
    (v, false)

let find_opt t key =
  if not t.enabled then begin
    locked t (fun () -> t.misses <- t.misses + 1);
    None
  end
  else locked t (fun () -> lookup t key)

let mem t key = locked t (fun () -> Hashtbl.mem t.table key)

let max_views = 4

let rendered t ~key ~view =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some node -> List.assoc_opt view node.rendered
      | None -> None)

let set_rendered t ~key ~view bytes =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some node ->
        node.rendered <-
          (view, bytes)
          :: List.filteri
               (fun i _ -> i < max_views - 1)
               (List.remove_assoc view node.rendered)
      | None -> ())

let length t = locked t (fun () -> t.entries)

let keys t =
  locked t (fun () ->
      let rec walk acc = function
        | None -> List.rev acc
        | Some node -> walk (node.key :: acc) node.next
      in
      walk [] t.mru)

let stats t =
  locked t (fun () ->
      {
        capacity = t.capacity;
        entries = t.entries;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        build_s = t.build_s;
        saved_s = t.saved_s;
      })

let dump t =
  locked t (fun () ->
      let rec walk acc = function
        | None -> acc
        | Some node ->
          walk ((node.key, node.cost_s, node.value) :: acc) node.next
      in
      (* Walking MRU→LRU while consing reverses the order, so the
         result is LRU-first: replaying it through {!restore} in list
         order rebuilds the exact recency chain. *)
      walk [] t.mru)

let restore t entries =
  if t.enabled then
    locked t (fun () ->
        List.iter
          (fun (key, cost_s, value) -> insert t ~key ~cost_s value)
          entries)

let digest key = Digest.to_hex (Digest.string key)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.mru <- None;
      t.lru <- None;
      t.entries <- 0)

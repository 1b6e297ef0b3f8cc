(* The daemon under test, run as a child process.

   [nanodec serve --socket PATH --domains 2] with every other flag at
   its default, so client threads never share its OCaml runtime lock.
   Every spawned daemon is registered for cleanup: on any exit path —
   a failed check, an exception, a signal — it is killed, reaped and
   its socket unlinked, so a crashed run cannot leave a daemon burning
   CPU during the next one. *)

let exe = Filename.concat "_build" (Filename.concat "default" "bin/nanodec_cli.exe")

type t = {
  pid : int;
  socket : string;
  log : string;
  telemetry : string option;
  mutable alive : bool;
}

let live : t list ref = ref []
let counter = ref 0

(* The generator shares the CPUs with the daemon it measures.  At a
   higher priority its sends and receives are not delayed behind the
   daemon's own work; daemons are then spawned back at the priority the
   benchmark started with.  Without the privilege nothing changes. *)
let boost = 10
let boosted = ref false

let raise_generator_priority () =
  match Unix.nice (-boost) with
  | _ -> boosted := true
  | exception Unix.Unix_error _ -> ()

let reap t =
  if t.alive then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
    t.alive <- false
  end;
  (try Sys.remove t.socket with Sys_error _ -> ());
  live := List.filter (fun d -> d != t) !live

let cleanup () = List.iter reap !live

let spawn ~workdir ~telemetry =
  incr counter;
  let base = Printf.sprintf "d%d-%d" (Unix.getpid ()) !counter in
  let socket = Filename.concat workdir (base ^ ".sock") in
  let telemetry =
    if telemetry then Some (Filename.concat workdir (base ^ ".telemetry.json"))
    else None
  in
  let log_path = Filename.concat workdir (base ^ ".log") in
  let log = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let args =
    (if !boosted then [ "nice"; "-n"; string_of_int boost ] else [])
    @ [ exe; "serve"; "--socket"; socket; "--domains"; "2" ]
    @ match telemetry with Some f -> [ "--telemetry"; f ] | None -> []
  in
  (* A fault plan in the environment would change what is measured. *)
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"NANODEC_FAULT_PLAN=" kv))
         (Array.to_list (Unix.environment ())))
  in
  let pid = Unix.create_process_env (List.hd args) (Array.of_list args) env stdin_r log log in
  List.iter Unix.close [ log; stdin_r; stdin_w ];
  let t = { pid; socket; log = log_path; telemetry; alive = true } in
  live := t :: !live;
  t

let exited t =
  t.alive
  &&
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ ->
    t.alive <- false;
    true

(* Connect as soon as the socket accepts; fails if the child dies or
   does not listen within [timeout_s]. *)
let connect ?(timeout_s = 30.) t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec attempt () =
    if exited t then failwith "daemon exited during start-up"
    else
      match Conn.connect t.socket with
      | c -> c
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
        when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.002;
        attempt ()
  in
  attempt ()

(* Peak resident set (VmHWM) in MiB, from /proc/<pid>/status. *)
let rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    let line = input_line ic in
    match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
    | Some kb -> float_of_int kb /. 1024.
    | None -> scan ()
  in
  scan ()

(* Graceful stop through the protocol, so a traced daemon writes its
   telemetry export; killed if it has not exited within [timeout_s].
   The log of a daemon that stopped cleanly is removed; a killed
   daemon's log stays for inspection. *)
let shutdown ?(timeout_s = 30.) t conn =
  ignore (Conn.request conn {|{"id":0,"verb":"shutdown"}|});
  Conn.close conn;
  let deadline = Unix.gettimeofday () +. timeout_s in
  while t.alive && not (exited t) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  if not t.alive then (try Sys.remove t.log with Sys_error _ -> ());
  reap t

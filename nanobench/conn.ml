(* One client connection to the daemon: whole-line writes and
   newline-framed reads over a blocking Unix-domain socket. *)

type t = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable lo : int;  (* unread bytes are buf.[lo .. hi) *)
  mutable hi : int;
  partial : Buffer.t;  (* a line split across reads *)
}

let of_fd fd =
  { fd; buf = Bytes.create 65536; lo = 0; hi = 0; partial = Buffer.create 1024 }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> of_fd fd
  | exception e ->
    Unix.close fd;
    raise e

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
let fd t = t.fd

let send t s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring t.fd s off (String.length s - off))
  in
  go 0

(* The next complete line already buffered, if any. *)
let take_line t =
  let rec newline i =
    if i >= t.hi then None
    else if Bytes.unsafe_get t.buf i = '\n' then Some i
    else newline (i + 1)
  in
  match newline t.lo with
  | Some i ->
    let line =
      if Buffer.length t.partial = 0 then Bytes.sub_string t.buf t.lo (i - t.lo)
      else begin
        Buffer.add_subbytes t.partial t.buf t.lo (i - t.lo);
        let l = Buffer.contents t.partial in
        Buffer.clear t.partial;
        l
      end
    in
    t.lo <- i + 1;
    Some line
  | None ->
    Buffer.add_subbytes t.partial t.buf t.lo (t.hi - t.lo);
    t.lo <- 0;
    t.hi <- 0;
    None

(* One read(2): [false] on end of file. *)
let fill t =
  let n = Unix.read t.fd t.buf t.hi (Bytes.length t.buf - t.hi) in
  t.hi <- t.hi + n;
  n > 0

let rec read_line t =
  match take_line t with
  | Some l -> l
  | None -> if fill t then read_line t else failwith "daemon closed the connection"

(* Every line that one read(2) completes — for select-driven callers. *)
let read_available t =
  if not (fill t) then failwith "daemon closed the connection";
  let rec drain acc =
    match take_line t with Some l -> drain (l :: acc) | None -> List.rev acc
  in
  drain []

let request t line =
  send t (line ^ "\n");
  read_line t

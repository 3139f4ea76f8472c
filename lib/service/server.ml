(* The socket server: one daemon core behind a select loop on a
   unix-domain socket.  See server.mli. *)

type conn = {
  cn_fd : Unix.file_descr;
  cn_buf : Buffer.t;
  mutable cn_open : bool;
}

let write_all fd s =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write_substring fd s !pos (n - !pos)
  done

(* Closing a connection also takes it out of the select set: a closed
   descriptor left there makes the next [Unix.select] raise EBADF. *)
let close_conn conns conn =
  if conn.cn_open then begin
    conn.cn_open <- false;
    Hashtbl.remove conns conn.cn_fd;
    try Unix.close conn.cn_fd with Unix.Unix_error _ -> ()
  end

(* A peer that hung up before its reply gets EPIPE here; it loses the
   reply and its connection, and the server goes on. *)
let send conns conn resp =
  if conn.cn_open then
    try write_all conn.cn_fd (Proto.encode_response resp ^ "\n")
    with Unix.Unix_error _ -> close_conn conns conn

(* Pull every complete line out of a connection's buffer. *)
let take_lines conn =
  let s = Buffer.contents conn.cn_buf in
  let rec go start acc =
    match String.index_from_opt s start '\n' with
    | Some i -> go (i + 1) (String.sub s start (i - start) :: acc)
    | None ->
      Buffer.clear conn.cn_buf;
      Buffer.add_substring conn.cn_buf s start (String.length s - start);
      List.rev acc
  in
  go 0 []

type listener = { l_fd : Unix.file_descr; l_path : string }

(* Whether a daemon accepts connections on the socket at [path]: a
   refused connect means the socket is stale. *)
let live path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> Ok true
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> Ok false
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

(* Only a stale socket is replaced: a killed daemon leaves its socket
   behind, a live daemon keeps its own, and anything else at the path is
   the user's file. *)
let listen path =
  let bind () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64
    with
    | () -> Ok { l_fd = fd; l_path = path }
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error (Unix.error_message e)
  in
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    (match live path with
     | Ok false ->
       (try Unix.unlink path; bind ()
        with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
     | Ok true -> Error "a daemon is already listening on it"
     | Error reason -> Error reason)
  | _ -> Error "exists and is not a socket"
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> bind ()
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let close l =
  (try Unix.close l.l_fd with Unix.Unix_error _ -> ());
  try Unix.unlink l.l_path with Unix.Unix_error _ -> ()

let serve cfg l =
  let srv = l.l_fd and socket = l.l_path in
  let d = Daemon.create cfg in
  let log fmt =
    if cfg.Daemon.sv_verbose then
      Printf.eprintf ("speccc-serve: " ^^ fmt ^^ "\n%!")
    else Printf.ifprintf stderr fmt
  in
  (* a peer closing mid-write must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  (* waiter id -> connection, for responses landed by complete_one *)
  let waiters : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_id = ref 0 in
  let chunk = Bytes.create 65536 in
  let answer (id, resp) =
    match Hashtbl.find_opt waiters id with
    | Some conn ->
      Hashtbl.remove waiters id;
      send conns conn resp
    | None -> ()
  in
  log "listening on %s (cache %s)" socket cfg.Daemon.sv_cache_dir;
  while not (Daemon.stopped d) do
    let fds = srv :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
    (* poll (don't sleep) while compiles are in flight, so parked
       waiters are answered promptly and new same-key arrivals can
       still ride the flight *)
    let timeout = if Daemon.has_inflight d then 0.0 else 1.0 in
    match Unix.select fds [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      (* accept *)
      if List.mem srv readable then begin
        match Unix.accept srv with
        | fd, _ ->
          Hashtbl.replace conns fd
            { cn_fd = fd; cn_buf = Buffer.create 4096; cn_open = true }
        | exception Unix.Unix_error _ -> ()
      end;
      (* read what arrived; 0 bytes = peer closed *)
      let batch = ref [] in
      List.iter
        (fun fd ->
          if fd <> srv then
            match Hashtbl.find_opt conns fd with
            | None -> ()
            | Some conn -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> close_conn conns conn
              | n ->
                Buffer.add_subbytes conn.cn_buf chunk 0 n;
                if Buffer.length conn.cn_buf > Proto.max_line then begin
                  (* framing is unrecoverable: answer and drop *)
                  send conns conn
                    (Daemon.refuse d
                       (Printf.sprintf "request exceeds %d bytes"
                          Proto.max_line));
                  close_conn conns conn
                end
                else
                  List.iter
                    (fun line -> batch := (conn, line) :: !batch)
                    (take_lines conn)
              | exception Unix.Unix_error _ -> close_conn conns conn))
        readable;
      let batch = List.rev !batch in
      (* decode; undecodable lines answered immediately with a
         structured error, well-formed requests submitted to the core —
         this wakeup's same-key requests join the creator, requests
         whose key is already in flight from an earlier wakeup park on
         it *)
      if batch <> [] then Daemon.begin_wakeup d;
      List.iter
        (fun (conn, line) ->
          match Proto.decode_request line with
          | Error m -> send conns conn (Daemon.refuse d m)
          | Ok req -> (
            let id = !next_id in
            incr next_id;
            Hashtbl.replace waiters id conn;
            match Daemon.submit d ~id req with
            | Daemon.Immediate resp -> answer (id, resp)
            | Daemon.Parked_on _ -> ()))
        batch;
      (* land at most one flight per wakeup: compiles overlap with
         accepting new requests, which is what lets a later wakeup's
         same-key request park instead of recompiling *)
      if Daemon.has_inflight d then List.iter answer (Daemon.complete_one d)
      else Daemon.quiesce d
  done;
  (* answer stragglers parked behind the shutdown before closing *)
  while Daemon.has_inflight d do
    List.iter answer (Daemon.complete_one d)
  done;
  Daemon.quiesce d;
  Hashtbl.fold (fun _ conn acc -> conn :: acc) conns []
  |> List.iter (close_conn conns);
  close l;
  log "stopped"

type server = { s_thread : Thread.t; s_socket : string }

let spawn cfg ~socket =
  match listen socket with
  | Ok l -> { s_thread = Thread.create (serve cfg) l; s_socket = socket }
  | Error reason ->
    failwith (Printf.sprintf "Server.spawn: %s: %s" socket reason)

let stop s =
  (match Client.connect s.s_socket with
   | Ok c ->
     (match Client.rpc c Proto.Shutdown with Ok _ | Error _ -> ());
     Client.close c
   | Error _ -> ());
  Thread.join s.s_thread

(** The socket server: one {!Daemon} core behind a [Unix.select] loop
    on a unix-domain socket.

    Each wakeup reads the lines that arrived, submits them to the core,
    then lands {e at most one} in-flight compile before polling again.
    Compiles therefore overlap with request intake, which is what makes
    the cross-wakeup single-flight registry real: a same-key request
    arriving while the compile is in flight parks on it ([parked]
    served tag) instead of compiling again, whatever wakeup it arrives
    in.  The core answers [stats] and [shutdown] itself; the server
    only frames lines and owns the connections. *)

(** A listening unix-domain socket and its path. *)
type listener

(** Bind and listen at a socket path.  A stale socket at the path —
    the one a killed daemon leaves behind, which refuses connections —
    is replaced; a socket a live daemon accepts on, or any other file,
    is refused and kept as it is.  A refused path, a missing directory
    or a failed bind is [Error reason]. *)
val listen : string -> (listener, string) result

(** Close a listener and remove its socket file. *)
val close : listener -> unit

(** Serve on a listener until a [shutdown] request, in the select loop
    described above.  Undecodable lines get structured error replies
    ({!Daemon.refuse}); a connection whose buffered line exceeds
    {!Proto.max_line} is answered with an error and closed.  A client
    that hangs up before its reply only loses that reply.  Flights
    still in the registry when shutdown arrives are landed and their
    waiters answered before the listener is closed. *)
val serve : Daemon.config -> listener -> unit

type server

(** {!listen} at the socket path, then run {!serve} on a background
    thread (tests, traffic replay); the socket is bound when [spawn]
    returns.  Raises [Failure] when {!listen} refuses the path. *)
val spawn : Daemon.config -> socket:string -> server

(** Request shutdown over the socket and join the server thread. *)
val stop : server -> unit

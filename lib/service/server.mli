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

(** Serve on a unix-domain socket path until a [shutdown] request;
    binds (replacing any stale socket file), then enters the select
    loop described above.  Undecodable lines get structured error
    replies ({!Daemon.refuse}); a connection whose buffered line
    exceeds {!Proto.max_line} is answered with an error and closed.  A
    client that hangs up before its reply only loses that reply.
    Flights still in the registry when shutdown arrives are landed and
    their waiters answered before the socket is torn down. *)
val serve : Daemon.config -> socket:string -> unit

type server

(** Run {!serve} on a background thread (tests, traffic replay). *)
val spawn : Daemon.config -> socket:string -> server

(** Request shutdown over the socket and join the server thread. *)
val stop : server -> unit

(** The compile service daemon core: a deterministic state machine
    that serves optimized programs out of the content-addressed
    compile cache and closes the paper's FDO loop online.  No sockets
    here — the select loop that drives the core lives in {!Server}.

    {2 Request handling}

    [compile] requests are answered from {!Spec_fdo.Cache} when warm
    (the cached program is lowered to vm bytecode only if the request
    executes it) and otherwise run through
    {!Spec_driver.Pipeline.compile_and_optimize}
    (whose per-function portion fans out on the {!Spec_driver.Parpool}
    domain pool).  Requests for the same cache key are deduplicated
    through a single-flight registry that {e persists across select
    wakeups}: the first request for a key creates an in-flight entry,
    later same-key requests park on it — tagged [joined] when they
    arrive in the same wakeup as the creator, [parked] when they
    arrive in a later one — and all are answered when the one compile
    lands.  N clients asking for one key, across any number of
    wakeups, cost exactly one cold compile; once a flight completes
    the cache itself serves repeats warm.

    {2 The online FDO loop}

    [report-profile] requests merge evidence into the unit's
    accumulated {!Spec_fdo.Store} as
    [merge_weighted ~wa:lambda ~wb:weight] — exponential decay of old
    evidence when [lambda < 1], plain commutative merge (so report
    order cannot matter) when [lambda = 1].  When
    {!Spec_fdo.Store.distance} between the accumulated store and the
    snapshot the unit's current artifact was compiled against crosses
    [drift_threshold], the daemon recompiles the unit in the
    background (once the registry is quiet) and atomically swaps its
    current artifact.  Stale evidence is safe by construction:
    {!Spec_fdo.Store.bind} drops unmatched sites, so a report from an
    out-of-date source only forgoes speculation. *)

type config = {
  sv_cache_dir : string;        (** compile-cache directory *)
  sv_max_entries : int option;  (** cache LRU bound, [None] = unbounded *)
  sv_lambda : float;            (** decay of old evidence per report, in [0,1] *)
  sv_drift : float;             (** recompile when drift exceeds this *)
  sv_verbose : bool;            (** log requests to stderr *)
}

val default_config : cache_dir:string -> config

type t

val create : config -> t

(** {2 Synchronous facade}

    One wakeup's worth of requests, fully drained. *)

(** Handle one scheduling batch of requests; responses come back in
    request order.  Duplicate compile keys within the batch are
    compiled once (single-flight: one creator, the rest [joined]);
    keys already in flight from an earlier {!begin_wakeup} are ridden
    as [parked].  Drift-triggered recompiles queued by reports run
    after every flight of the batch has landed. *)
val handle_batch : t -> Proto.request list -> Proto.response list

(** [handle_batch] of a singleton. *)
val handle : t -> Proto.request -> Proto.response

(** {2 Incremental interface}

    What the socket server drives: submission and completion are
    decoupled, so same-key requests arriving between completions —
    i.e. in later select wakeups — park on the existing flight
    instead of compiling again. *)

(** Verdict of {!submit}: answered now, or parked on the in-flight
    compile of the returned cache key. *)
type submitted =
  | Immediate of Proto.response
  | Parked_on of string

(** Start a new wakeup (epoch).  Compile submissions after this point
    that join a flight created in an earlier wakeup are tagged
    [parked] rather than [joined]. *)
val begin_wakeup : t -> unit

(** Submit one request under a caller-chosen waiter id (returned with
    the response by {!complete_one}).  Reports, stats, shutdown and
    malformed requests are answered immediately; well-formed compiles
    always go through the registry.  Only [profile] compiles record
    the unit's source for drift-triggered recompiles. *)
val submit : t -> id:int -> Proto.request -> submitted

(** The error reply to a line that never became a request (undecodable
    or oversized), counted under [requests] and [errors] like any
    refused request. *)
val refuse : t -> string -> Proto.response

(** Whether any flight is pending. *)
val has_inflight : t -> bool

(** Land the oldest in-flight compile (creation order) and answer all
    of its waiters, in submission order: [(id, response)] for every
    waiter recorded by {!submit}.  [[]] when the registry is empty.
    The creator's [served] tag is [cold] or [warm] by how the compile
    was actually satisfied; joiners keep the [joined]/[parked] tag
    fixed at submission. *)
val complete_one : t -> (int * Proto.response) list

(** Run queued drift-triggered recompiles, provided the registry is
    empty (responses first, maintenance second). *)
val quiesce : t -> unit

(** {2 Introspection} *)

(** Monotonic counters: requests, cold, warm, joined, parked, reports,
    recompiles, errors, units, inflight; the cache's hits, misses,
    stores, evictions, [cache_store_failures] (artifacts that could
    not be written: the compile is still answered, and a cache
    directory that vanished reads as empty), hit rate in ppm and
    length; [store_drift_ppm_max], the worst per-unit drift from its
    compiled snapshot in ppm; and [store_invalid], the number of unit
    stores failing {!Spec_fdo.Store.validate}, 0 on a healthy
    daemon. *)
val counters : t -> (string * int) list

(** True once a [shutdown] request was handled. *)
val stopped : t -> bool

val cache : t -> Spec_fdo.Cache.t

(** The unit's current artifact: set by profile-fed compiles and
    atomically swapped by drift-triggered background recompiles. *)
val current_artifact : t -> string -> Spec_driver.Pipeline.result option

(** Accumulated per-unit profile stores (concurrency tests assert
    these stay [validate]-clean after mixed-key storms). *)
val unit_stores : t -> (string * Spec_fdo.Store.t) list

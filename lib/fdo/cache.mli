(** Content-addressed compile cache: a blob store keyed by hex digests
    the caller computes over every compile input (source, pipeline
    variant, merged-profile digest, schema version).  Atomic writes,
    corrupt/missing entries read as misses, optional LRU entry cap. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable store_failures : int;
      (** failed {!store}s its caller chose to survive (the compile
          pipeline counts them here and still answers) *)
}

type t

(** Open (creating if needed) a cache directory.  [max_entries] caps the
    number of artifacts; the oldest by mtime are evicted on store. *)
val create : ?max_entries:int -> string -> t

val stats : t -> stats
val stats_to_string : t -> string

(** Look up an artifact; counts a hit or miss, refreshes mtime on hit. *)
val find : t -> string -> string option

(** Store an artifact under a key (atomic; then evicts past the cap).
    A failed write raises [Sys_error] and leaves no temp file behind. *)
val store : t -> string -> string -> unit

(** Number of artifacts currently on disk; 0 when the directory has
    vanished or cannot be read. *)
val length : t -> int

(** Content-addressed compile cache: a blob store keyed by hex digests
    the caller computes over every compile input (source, pipeline
    variant, merged-profile digest, schema version).  Atomic writes,
    corrupt/missing entries read as misses, optional LRU entry cap. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
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

(** Number of artifacts currently on disk. *)
val length : t -> int

(** Stable key-prefix partition: which of [shards] slices owns a hex
    key.  Deterministic across restarts (folds the leading hex digits;
    never [Hashtbl.hash]), total over valid keys, and uniform enough
    for MD5 keys.  The compile service routes cache-keyed requests with
    this. *)
val shard_of_key : shards:int -> string -> int

(** [shard_dir dir i] is shard [i]'s slice of cache directory [dir]
    ([dir/shard-<i>]); creates [dir] itself on demand so
    [create (shard_dir dir i)] works on a fresh path.  Distinct shards
    get disjoint directories, so their artifact sets are disjoint by
    construction. *)
val shard_dir : string -> int -> string

(** Advanced Load Address Table model (IA-64-style).

    [ld.a] allocates an entry tagged by its destination register and the
    accessed address; stores invalidate overlapping entries; [ld.c]
    queries by register tag — a surviving entry means the data
    speculation held. Entries are also lost to capacity eviction, which
    the ALAT-size ablation measures, and to injected interference when a
    stress plan is attached (see {!Spec_stress.Faults}).

    The table is a set of flat arrays indexed by [set * assoc + way].  A
    register tag is found by scanning the (at most a few dozen) entries,
    skipped outright when none is live, so [insert] and [check]
    allocate nothing. *)

type t = {
  n_sets : int;  (** a power of two *)
  assoc : int;
  tag_frame : int array;
  tag_reg : int array;
  addr : int array;
  valid : Bytes.t;
  mutable n_live : int;  (** valid entries; {!live} *)
  mutable next_victim : int;  (** round-robin way, shared by all sets *)
  mutable faults : Spec_stress.Faults.injector option;
  mutable inserts : int;
  mutable store_invalidations : int;
  mutable capacity_evictions : int;
}

(** [create ~entries ~assoc ()] — default 32 entries, 2-way.  Raises
    [Invalid_argument] unless [entries] is [assoc] times a power of two:
    any other size would leave sets unreachable. *)
val create : ?entries:int -> ?assoc:int -> unit -> t

(** Attach (or clear) a fault injector; faults fire from {!interfere}. *)
val set_faults : t -> Spec_stress.Faults.injector option -> unit

(** Advance injected interference (flushes, chaos invalidation) to the
    machine clock.  No-op when no injector is attached. *)
val interfere : t -> now:int -> unit

(** Allocate an entry for an advanced load.  An existing entry with the
    same (frame, reg) tag is replaced; a full set evicts a victim.
    [frame] is the activation serial, standing in for the distinct
    physical registers of the register stack. *)
val insert : t -> frame:int -> reg:int -> addr:int -> unit

(** A store of [bytes] at [addr] invalidates every overlapping entry. *)
val invalidate_store : t -> addr:int -> bytes:int -> unit

(** Check-load query: does the entry for (frame, reg) survive? *)
val check : t -> frame:int -> reg:int -> bool

(** Number of live (valid) entries. *)
val live : t -> int

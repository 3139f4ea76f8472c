(** The semantic ALAT of the threaded-code vm ({!Vm}).

    Advanced loads arm an entry [(frame serial, tag) -> address]; stores
    drop every entry holding their address; a check load reloads only
    when its entry is gone or guards a different address.  There is no
    capacity limit — capacity effects belong to the machine model
    ({!Spec_machine.Alat}), not to the language semantics — but an entry
    lives only as long as its frame: {!exit_frame} drops the entries of
    a returning activation.  Serials are never reused and a check only
    reads its own frame's entries, so without injected faults reclaiming
    dead entries is unobservable; it keeps the table, and so the cost of
    every store, bounded by the live frames' entries.

    Injected interference ({!Spec_stress.Faults}) advances on a clock of
    ALAT operations (arm, check, store-invalidate).  A chaos
    invalidation drops the k-th entry in [Hashtbl] iteration order, a
    pure function of the table's history; {!Interp_ref} keeps its own
    copy of the table with the same protocol, so the vm and the oracle
    pick the same victims. *)

type t

(** A fresh table.  [faults] attaches injected interference. *)
val create : ?faults:Spec_stress.Faults.injector -> unit -> t

(** Hand out the serial of a new activation (1, 2, ...). *)
val enter_frame : t -> int

(** The activation [serial] returns: drop its entries.  O(1) unless the
    frame, or a frame it called, armed an entry; does not tick the
    interference clock. *)
val exit_frame : t -> int -> unit

(** An advanced load of [tag] in frame [serial] read [addr]. *)
val arm : t -> serial:int -> tag:int -> int -> unit

(** Does the entry for ([serial], [tag]) survive and guard [addr]? *)
val check : t -> serial:int -> tag:int -> int -> bool

(** A store to [addr]: drop every entry holding that address.  Free when
    the table is empty and no injector is attached. *)
val invalidate : t -> int -> unit

(** Number of live entries. *)
val live : t -> int

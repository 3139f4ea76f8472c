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

    {!create} picks one of two representations, once:
    - Without an injector, the live entries sit in flat int arrays in
      arm order.  Because frames nest and a returning frame drops its
      entries, the innermost frame's entries are the arrays' tail:
      {!arm} and {!check} scan that tail from the top, {!exit_frame}
      truncates it, and {!invalidate} compacts the arrays in order.
      Nothing is hashed, and nothing is allocated but the arrays'
      geometric growth.
    - With an injector, the table is a [Hashtbl].  Injected interference
      ({!Spec_stress.Faults}) advances on a clock of ALAT operations
      (arm, check, store-invalidate), and a chaos invalidation drops the
      k-th entry in [Hashtbl] iteration order, a pure function of the
      table's history.  {!Interp_ref} keeps its own copy of that table
      with the same protocol, so the vm and the oracle pick the same
      victims; no other order would.

    Both representations answer every {!check} and {!live} alike, given
    that {!arm} and {!check} name the innermost live frame, as the vm
    always does. *)

type t

(** A fresh table.  [faults] attaches injected interference. *)
val create : ?faults:Spec_stress.Faults.injector -> unit -> t

(** Hand out the serial of a new activation (1, 2, ...). *)
val enter_frame : t -> int

(** The activation [serial] returns: drop its entries.  O(1) unless the
    frame, or a frame it called, armed an entry; does not tick the
    interference clock. *)
val exit_frame : t -> int -> unit

(** An advanced load of [tag] in frame [serial], the innermost live
    one, read [addr]. *)
val arm : t -> serial:int -> tag:int -> int -> unit

(** Does the entry for ([serial], [tag]) survive and guard [addr]?
    [serial] is the innermost live frame, or one that has returned. *)
val check : t -> serial:int -> tag:int -> int -> bool

(** A store to [addr]: drop every entry holding that address.  Without
    an injector it returns at once when the table is empty and writes
    nothing unless an entry holds [addr]. *)
val invalidate : t -> int -> unit

(** Number of live entries. *)
val live : t -> int

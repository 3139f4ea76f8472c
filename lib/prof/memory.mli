(** Flat cell-addressed memory shared by the execution engines and the
    machine simulator.

    The address space is split into a data segment (globals,
    [\[data_base, stack_base)]), a stack ([\[stack_base, stack_limit)])
    and a heap right above it ([\[heap_base, size)], with [heap_base =
    stack_limit]).  Every scalar occupies one 8-byte cell; integer and
    float cells are stored unboxed in two parallel arrays indexed by
    [addr / 8] (the typed source language never reads a cell at a
    different scalar kind than it was written — the same assumption the
    type-based alias analysis makes).

    The arrays cover only what the run has laid out: [limit] bytes, the
    data segment from {!create}, the stack up to the deepest
    {!push_frame_var}, the heap up to the last {!malloc}, and any cell a
    store has reached.  They grow geometrically as the run lays out
    more.  Every cell at or past [limit] reads 0, as a fresh cell does;
    a store there grows the arrays first.  Faults do not depend on
    [limit]: an access faults when it is unaligned or outside
    [\[data_base, size)], exactly as if the whole address space were
    allocated.

    The memory also resolves an address to what it belongs to, for the
    alias profiler ({!resolve}).  Globals and heap allocations keep
    their owner for the whole run, so they sit in one table of extents
    sorted by address, searched by bisection; stack cells change owner
    as frames are pushed and popped, so the stack keeps an owner per
    cell.

    The record type is exposed (rather than abstract) deliberately: the
    threaded-code engine ({!Vm}) and the machine simulator inline the
    cell access in their dispatch loops.  An aligned [addr] with
    [data_base <= addr <= limit - 8] reads and writes
    [ints.(addr lsr 3)] / [flts.(addr lsr 3)] directly (bumping [hw_low]
    or [hw_heap] on a write); anything else goes through the checked
    accessors below, which fault, read 0 or grow the arrays.  Any layout
    change here is a change to that contract. *)

open Spec_ir

val data_base : int
val stack_base : int
val stack_limit : int

(** [= stack_limit]: the heap starts where the stack ends. *)
val heap_base : int

(** First heap cell index; the boundary between the [hw_low] and
    [hw_heap] dirty-range marks below. *)
val heap_cell0 : int

type t = {
  mutable ints : int array;            (* replaced, longer, on growth *)
  mutable flts : float array;
  mutable limit : int;
      (* bytes the arrays cover: cell [c] exists iff [c < limit / 8] *)
  size : int;                          (* in bytes *)
  (* LOC resolution *)
  mutable stack_locs : int array;      (* stack cell index -> var id, -1 none *)
  mutable obj_lo : int array;
      (* start addresses of the globals, then of the heap allocations,
         ascending *)
  mutable obj_hi : int array;          (* object index -> end address *)
  mutable obj_owner : int array;       (* var id, or -2 - alloc site *)
  mutable n_obj : int;
  mutable sp : int;                    (* next free stack address *)
  mutable hp : int;                    (* next free heap address *)
  global_addr : (int, int) Hashtbl.t;  (* var id -> address *)
  (* high-water marks, so a recycled image only re-zeroes what the
     previous run actually dirtied; tracked per segment, so a run that
     writes a global and a heap cell does not dirty the stack between *)
  mutable hw_low : int;                (* written cells below the heap *)
  mutable hw_heap : int;               (* written cells in the heap *)
  mutable stack_hw : int;              (* exclusive bound of stack_locs use *)
}

exception Fault of string

(** Return [m] to the image pool.  The caller must not touch [m] again:
    the engines call this once a run is over, however it ends.  The pool
    keeps the newest images. *)
val release : t -> unit

(** Create a memory image with the program's globals laid out in the
    data segment, its arrays covering at least that segment.
    [heap_bytes] bounds heap allocation ([size = heap_base +
    heap_bytes]).  Images are recycled through a small domain-shared
    pool, arrays as grown; only the cells the previous run dirtied are
    re-zeroed. *)
val create : ?heap_bytes:int -> Sir.prog -> t

(** Checked accessors: fault on an unaligned address or one outside
    [\[data_base, size)]; a load past [limit] reads 0, a store there
    grows the arrays to cover it. *)

val load_int : t -> int -> int
val load_flt : t -> int -> float
val store_int : t -> int -> int -> unit
val store_flt : t -> int -> float -> unit

(** Non-faulting loads for control-speculatively hoisted code (ld.s
    semantics: a bad address defers the fault; the value is never
    consumed on the mis-speculated path). *)
val load_int_spec : t -> int -> int

val load_flt_spec : t -> int -> float

(** Address of a global variable; faults if the variable has none. *)
val global_addr : t -> int -> int

(** Allocate [bytes] of stack for variable [vid]; returns the address.
    The arrays then cover the stack up to the new frame's end. *)
val push_frame_var : t -> int -> int -> int

val stack_mark : t -> int
val pop_frame : t -> int -> unit

(** Allocate [bytes] (rounded up to whole cells) of heap for an
    allocation made at [site]; the arrays then cover it.  A negative
    size faults, and so does one past the heap, however large. *)
val malloc : t -> site:int -> int -> int

(** What an address belongs to, as {!resolve} finds it. *)
type found = {
  mutable owner : int;
      (** a variable id ([>= 0]), [-2 - site] for a heap allocation
          made at [site], or [-1] for nothing *)
  mutable lo : int;
  mutable hi : int;
      (** [\[lo, hi)] is the extent of the global or heap allocation
          that holds the address.  Those objects keep their owner for
          the rest of the run, so a caller may take any address inside
          the extent to belong to [owner] without asking again.  The
          range is empty ([lo = hi]) for a stack cell, whose owner
          changes when its frame pops, and for an unowned address. *)
}

(** A fresh {!found}, for {!resolve} to fill. *)
val found : unit -> found

(** [resolve m addr f] fills [f] with what [addr] belongs to, without
    allocating. *)
val resolve : t -> int -> found -> unit

(** Resolve an address to its abstract memory location ({!resolve}'s
    owner as a LOC). *)
val loc_of_addr : t -> int -> Loc.t option

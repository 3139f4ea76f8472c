(** Flat cell-addressed memory shared by the execution engines and the
    machine simulator.

    The address space is split into a data segment (globals), a stack,
    and a heap.  Every scalar occupies one 8-byte cell; integer and
    float cells are stored unboxed in two parallel arrays (the typed
    source language never reads a cell at a different scalar kind than
    it was written — the same assumption the type-based alias analysis
    makes).

    The record type is exposed (rather than abstract) deliberately: the
    threaded-code engine ({!Vm}) inlines the bounds check and the cell
    array access in its dispatch loop, falling back to the checked
    accessors below on the slow path.  Any layout change here is a
    change to the engine contract. *)

open Spec_ir

val data_base : int
val stack_base : int
val stack_limit : int
val heap_base : int

(** First heap cell index; the boundary between the [hw_low] and
    [hw_heap] dirty-range marks below. *)
val heap_cell0 : int

type t = {
  ints : int array;
  flts : float array;
  size : int;                          (* in bytes *)
  (* LOC resolution *)
  data_locs : int array;               (* data cell index -> var id *)
  mutable stack_locs : int array;      (* stack cell index -> var id, -1 none *)
  mutable heap_allocs : (int * int * int) array;
      (* (start addr, byte length, alloc site), sorted by start *)
  mutable heap_n : int;
  mutable heap_last : int;             (* heap_allocs index [owner] last hit *)
  mutable sp : int;                    (* next free stack address *)
  mutable hp : int;                    (* next free heap address *)
  global_addr : (int, int) Hashtbl.t;  (* var id -> address *)
  (* high-water marks, so a recycled image only re-zeroes what the
     previous run actually dirtied; tracked per segment because the
     heap sits 16 MB into the address space *)
  mutable hw_low : int;                (* written cells below the heap *)
  mutable hw_heap : int;               (* written cells in the heap *)
  mutable data_hw : int;               (* data_locs cells used by layout *)
  mutable stack_hw : int;              (* exclusive bound of stack_locs use *)
}

exception Fault of string

(** Return [m] to the image pool.  The caller must not touch [m] again:
    the engines call this once a run is over. *)
val release : t -> unit

(** Create a memory image with the program's globals laid out in the
    data segment.  [heap_bytes] bounds heap allocation.  Images are
    recycled through a small domain-shared pool; only the cells the
    previous run dirtied are re-zeroed. *)
val create : ?heap_bytes:int -> Sir.prog -> t

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

(** Allocate [bytes] of stack for variable [vid]; returns the address. *)
val push_frame_var : t -> int -> int -> int

val stack_mark : t -> int
val pop_frame : t -> int -> unit

val malloc : t -> site:int -> int -> int

(** What an address belongs to, without allocating: a variable id
    ([>= 0]), [-2 - site] for a heap object allocated at [site], or
    [-1] for nothing.  A one-entry cache of the last heap object found
    sits in front of the heap's binary search. *)
val owner : t -> int -> int

(** Resolve an address to its abstract memory location ({!owner} as a
    LOC). *)
val loc_of_addr : t -> int -> Loc.t option

(** Flat machine code: ITL lowered to one int array per function.

    {!lower} makes every decision that does not depend on run-time
    values once: callee lookup and builtin dispatch, frame slots for
    memory-resident locals and formals, block ids patched to code
    offsets, a dense id for each load/store site, and each conditional
    branch's predictor index.  It also checks every register operand
    against its function's frame, so the walk in {!Machine} can read
    registers unchecked.

    Code words are opcodes followed by their inline operands; the
    opcode numbering is private to this module and {!Machine}. *)

type formal = {
  aslot : int;  (** frame address slot of a memory-resident formal, or -1 *)
  vid : int;
  bytes : int;
  fp : bool;
  reg : int;  (** register the formal binds, or -1 *)
}

type func = {
  name : string;
  code : int array;
  nregs : int;  (** frame size, at least 1 *)
  n_addr : int;  (** frame address slots *)
  mem_locals : (int * int * int) array;  (** (addr slot, vid, bytes) *)
  formals : formal array;
}

type program = {
  sir : Spec_ir.Sir.prog;
  funcs : func array;
  main : int;  (** index into [funcs], [-1] if there is no [main] *)
  fpool : float array;  (** float literals *)
  spool : string array;  (** run-time error messages *)
  n_sites : int;  (** distinct load/store sites *)
}

(** Entries of the out-of-order core's branch predictor; a conditional
    branch carries its index into them. *)
val bp_size : int

(** Lower a whole ITL program.  Raises {!Backend.Machine_error} naming
    the function and register when an operand lies outside its frame,
    or the block when a branch targets a missing one. *)
val lower : Spec_codegen.Itl.mprog -> program

(** Threaded-code lowering: resolved SIR to a flat bytecode array.

    Compiles {!Interp}'s resolved form one step further, into a dense
    [int array] instruction stream per function — opcode words with
    inline operand slots — executed by the dispatch loop in {!Vm}.
    Lowering from {!Interp.compiled} (rather than from [Sir] directly)
    means every type-resolution, slot-assignment and
    speculation-classification decision is made once, in
    {!Interp.compile}.

    The opcode numbering is private to this module and {!Vm}, so the
    two files must stay in sync; the differential suites catch any
    mismatch immediately.  Bytecode never leaves the process: the
    compile cache stores the optimized SIR, and a cache hit lowers it
    here again on first execution, which costs less than reading a
    stored copy did.

    {!profile} is the profiling lowering of the same program: the same
    emitter adds instrumentation opcodes that write dense counters
    (see {!Vm.profile}).  They spend no steps and no fuel, and
    {!compile}/{!of_compiled} never emit them. *)

type func = {
  vname : string;
  vcode : int array;                     (** flat opcode/operand words *)
  n_regs : int;                          (** slots incl. temporaries *)
  n_addr : int;                          (** frame address slots *)
  vmem_locals : (int * int * int) array; (** (addr slot, vid, bytes) *)
  vformals : Interp.formal array;
  vdeopt : (int, Interp.cdeopt * int) Hashtbl.t;
      (** check-opcode pc -> (deoptimization descriptor, step refund).
          Slot numbering is {!Interp.compile}'s, which the bytecode
          shares; the refund undoes the block's up-front step charge for
          the statements a mid-block deopt never executes, keeping the
          step counter at its per-statement value. *)
}

type program = {
  vsrc : Spec_ir.Sir.prog;   (** the SIR the bytecode was lowered from *)
  vfuncs : func array;
  vmain : int;               (** index into [vfuncs], [-1] if no main *)
  fpool : float array;       (** float-literal pool *)
  spool : string array;      (** error-message pool *)
}

(** Lower an already resolved program (shares its resolution
    decisions). *)
val of_compiled : Interp.compiled -> program

(** [of_compiled] of {!Interp.compile}. *)
val compile : Spec_ir.Sir.prog -> program

(** What the dense ids inside profile-mode bytecode stand for. *)
type layout = {
  edges : (int * int * int) array;
      (** edge id → (function index, source block, target block) *)
  ref_sites : int array;      (** reference slot → indirect-reference site *)
  call_sites : int array;     (** call slot → call site *)
  locs : Spec_ir.Loc.t array; (** LOC id → LOC *)
  loc_of_vid : int array;     (** variable id → LOC id, [-1] if none *)
  loc_of_heap_site : int array;  (** malloc site → LOC id, [-1] if none *)
  classes : string array;
      (** load-reuse class id → key ([func:varN] or [func:address]) *)
}

(** Profile-mode lowering: {!compile} plus an entry counter per
    function, a counter per CFG edge (gotos and both arms of every
    conditional, compare-and-branch fusion kept), a memory-reference
    event before every load and store of a memory variable or through a
    pointer (formal spills excluded, as in the pinned hook-era
    profiles; a direct reference's event carries the variable's LOC
    id), and
    call-site open/close around every user call.  Load/ALU fusion is
    off.  With [values], every load is followed by a load-value
    observation for {!Load_reuse}.  The program must be unspeculated:
    a check statement raises [Invalid_argument]. *)
val profile : ?values:bool -> Spec_ir.Sir.prog -> program * layout

(** Threaded-code execution engine: a tight dispatch loop over the flat
    bytecode produced by {!Vmcode} (the "vm"), and the project's only
    executor of SIR besides the semantic oracle {!Interp_ref}.

    One closure-free dispatch loop per activation over dense integer
    opcodes (the match compiles to a jump table) and unboxed per-frame
    int/float slot arrays.  All speculation semantics match the
    oracle's: the same semantic ALAT protocol, advanced loads, check
    loads, store invalidation, and injected interference on the same
    ALAT-operation clock.  Observable behaviour — output, return value,
    and every counter — is identical to {!Interp_ref} on every run that
    terminates; [test/test_engines.ml] and [test/test_fuzz.ml] enforce
    this differentially across workloads, variants and fault plans.

    The same loop runs profile-mode bytecode ({!profile}) into a dense
    {!recorder}; a memory-reference event there costs O(1) in the
    common case, with no address lookup for a direct reference. *)

type result = Interp.result

(** {!Interp.error}: raise {!Interp.Runtime_error} with the oracle's
    message discipline. *)
val error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Execute pre-lowered bytecode from [main].  [fuel] bounds the step
    count (default 200M, spent per block exactly as the oracle spends
    it per statement); [faults] injects ALAT interference on the shared
    clock; [recover] supplies a deoptimization plan — failed checks
    whose pc carries a descriptor finish their function in the
    unoptimized body instead of reloading (counted in [deopts], not
    [check_reloads]); [heap_bytes] sizes the heap (default 24MB).  Raises
    {!Interp.Runtime_error} on any fault, with the oracle's message. *)
val run_program :
  ?fuel:int -> ?faults:Spec_stress.Faults.injector ->
  ?recover:Spec_safety.Deopt.plan -> ?heap_bytes:int ->
  Vmcode.program -> Interp.result

(** Dense profile counters, filled by a {!profile} run; ids are the
    {!Vmcode.layout}'s. *)
type recorder = private {
  lay : Vmcode.layout;
  entries : int array;            (** function index → entry count *)
  mutable invocations : int;      (** all function entries *)
  edge_counts : int array;        (** edge id → traversal count *)
  ref_counts : int array;         (** reference slot → executions *)
  site_locs : int array array;
      (** reference slot → LOC ids observed there, first-touch order *)
  site_hits : int array array;    (** matching observation counts *)
  site_n : int array;             (** used prefix of each LOC table *)
  site_last : int array;          (** index of the slot's last LOC *)
  cache_lo : int array;
  cache_hi : int array;
      (** reference slot → extent [\[lo, hi)] of the global or heap
          object its last address fell in; empty after a stack or
          unowned address *)
  cache_loc : int array;
      (** that object's LOC id, the one at the slot's [site_last] *)
  call_mod : Bytes.t;
      (** byte [k * n_locs + l] is nonzero iff LOC [l] was stored to
          while call slot [k] was open *)
  call_ref : Bytes.t;             (** same, for loads *)
  open_count : int array;         (** call slot → open activations *)
  open_slots : int array;         (** distinct open call slots *)
  mutable n_open : int;
  mutable epoch : int;
      (** moves whenever the set of open call slots changes *)
  mod_stamp : int array;
      (** LOC id → epoch in which it last joined the open slots' mod
          sets *)
  ref_stamp : int array;          (** same, for the ref sets *)
  mutable lookups : int;
      (** reference events resolved through {!Memory.resolve}: indirect
          references whose address left the object their slot cached,
          stack addresses included *)
  mutable ref_addr : int;         (** address of the latest reference *)
  mutable loads : int;            (** load-value observations *)
  mutable reused : int;           (** of which potential reuses *)
  cl_inv : int array;             (** class → invocation of its last load *)
  cl_addr : int array;            (** class → address of its last load *)
  cl_fp : Bytes.t;                (** class → last value was a float *)
  cl_int : int array;
  cl_flt : float array;
}

(** Run profile-mode bytecode ({!Vmcode.profile}) from [main], counting
    into a fresh recorder.  The profile opcodes spend no steps and no
    fuel: the result is the one {!run_program} returns for the plain
    lowering.

    A reference event costs O(1) in the common case.  A direct
    reference carries its variable's LOC id from the lowering.  An
    indirect one looks its address up in {!Memory} only when the
    address leaves the global or heap object its slot saw last; stack
    addresses, whose owner changes as frames pop, are always looked up.
    A LOC joins the mod/ref sets of the open call slots only once per
    change of the open set. *)
val profile :
  ?fuel:int -> ?heap_bytes:int ->
  Vmcode.program -> Vmcode.layout -> Interp.result * recorder

(** Lower [p] and run [main] in one step (one cheap pass; callers that
    execute the same program repeatedly should {!Vmcode.compile} once
    and use {!run_program}). *)
val run :
  ?fuel:int -> ?faults:Spec_stress.Faults.injector ->
  ?recover:Spec_safety.Deopt.plan -> ?heap_bytes:int ->
  Spec_ir.Sir.prog -> Interp.result

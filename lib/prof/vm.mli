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
    this differentially across workloads, variants and fault plans. *)

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
  call_mod : Bytes.t;
      (** byte [k * n_locs + l] is nonzero iff LOC [l] was stored to
          while call slot [k] was open *)
  call_ref : Bytes.t;             (** same, for loads *)
  open_count : int array;         (** call slot → open activations *)
  open_slots : int array;         (** distinct open call slots *)
  mutable n_open : int;
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
    lowering. *)
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

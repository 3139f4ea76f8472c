(** ITL machine simulation: the in-order EPIC core and the out-of-order
    core as two timing models under one functional walk.

    {!resolve} lowers ITL to flat code ({!Mcode}); a run walks that code
    once, executing every instruction — memory, the ALAT, injected
    faults, calls and output — and charges each one to the timing model
    of the selected core.  Program output, [insns] and the ALAT traffic
    therefore agree across cores by construction; only timing differs.
    [run], [run_resolved] and [run_sir] run the in-order core, the
    paper's machine; the [*_on] functions take the core as an argument.
    [test/test_engines.ml], [test/test_backends.ml] and
    [test/quick_tables.txt] pin every counter of both cores. *)

include module type of struct include Backend end

(** A program lowered to flat machine code. *)
type rprog = Mcode.program

(** Lower an ITL program; see {!Mcode.lower}. *)
val resolve : Spec_codegen.Itl.mprog -> rprog

(** {1 The in-order core} *)

val run_resolved :
  ?config:config -> ?faults:Spec_stress.Faults.injector -> rprog -> result

(** Resolve and run an ITL program from [main]. *)
val run :
  ?config:config -> ?faults:Spec_stress.Faults.injector ->
  Spec_codegen.Itl.mprog -> result

(** Lower an (out-of-SSA) SIR program and run it. *)
val run_sir :
  ?config:config -> ?faults:Spec_stress.Faults.injector ->
  Spec_ir.Sir.prog -> result

(** {1 Either core} *)

type backend = kind

val all_backends : backend list
val backend_name : backend -> string
val backend_of_string : string -> backend option

(** [faults] attaches a stress injector (see {!Spec_stress.Faults});
    capacity pressure comes through [config.alat_entries]. *)
val run_resolved_on :
  backend -> ?config:config -> ?faults:Spec_stress.Faults.injector ->
  rprog -> result

val run_on :
  backend -> ?config:config -> ?faults:Spec_stress.Faults.injector ->
  Spec_codegen.Itl.mprog -> result

val run_sir_on :
  backend -> ?config:config -> ?faults:Spec_stress.Faults.injector ->
  Spec_ir.Sir.prog -> result

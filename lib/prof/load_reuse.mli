(** Simulation-based potential-load-reuse analysis (the first estimation
    method of the paper's §5.3, after Bodik et al.): a dynamic load counts
    as a potential reuse when the previous load of the same address in its
    lexical equivalence class produced the same value within the same
    procedure invocation. *)

type t = {
  total_loads : int;
  reused_loads : int;
}

val reuse_fraction : t -> float

(** Run a program with load-reuse instrumentation on the vm.  The
    program must be unspeculated (e.g. a base build). *)
val analyse : ?fuel:int -> Spec_ir.Sir.prog -> t * Interp.result

(** Simulation-based potential-load-reuse analysis (the first estimation
    method of §5.3, after Bodik et al.'s load-reuse analysis).

    Memory references with identical names (scalars) or identical address
    syntax trees (indirect references) form equivalence classes.  Tracking
    the dynamic reference stream, a load is counted as a potential reuse
    when the previous load of the same address in its equivalence class
    produced the same value within the same procedure invocation.  The
    classes are interned once per program by the profile-mode lowering
    ({!Vmcode.profile} with [~values]); the vm's recorder keeps each
    class's last address, value and invocation. *)

type t = {
  total_loads : int;
  reused_loads : int;
}

(** Fraction of dynamic loads that are potential (speculative) reuses. *)
let reuse_fraction t =
  if t.total_loads = 0 then 0.
  else float_of_int t.reused_loads /. float_of_int t.total_loads

(** Run a program with load-reuse instrumentation. *)
let analyse ?(fuel = 200_000_000) (prog : Spec_ir.Sir.prog) : t * Interp.result
    =
  let vp, lay = Vmcode.profile ~values:true prog in
  let r, pr = Vm.profile ~fuel vp lay in
  ({ total_loads = pr.Vm.loads; reused_loads = pr.Vm.reused }, r)

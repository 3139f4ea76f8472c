(** Speculative SSAPRE: the six-step SSAPRE algorithm (Kennedy et al.,
    TOPLAS 21(3)) extended with the paper's control- and data-speculation
    support (Appendices A and B).  See the implementation header for the
    algorithm walk-through; drive it through [Spec_driver.Pipeline]. *)

type config = {
  mode : Spec_spec.Flags.mode;
  control_spec : bool;
      (** allow insertion at non-downsafe Phis when profitable *)
  cspec_always : bool;
      (** force control speculation regardless of the edge profile (tests) *)
  cspec_ratio : float;
      (** insert speculatively when the insertion-edge frequency is below
          this fraction of the Phi block's frequency *)
  arith_pre : bool;
      (** also PRE pure arithmetic expressions (not just loads) *)
  alias_threshold : float;
      (** degree-of-likeliness knob, see [Spec_spec.Kills.create] *)
  adversary : Spec_spec.Flags.perturbation option;
      (** stress harness: corrupt kill-classification verdicts, see
          [Spec_spec.Kills.create] *)
}

val default_config : Spec_spec.Flags.mode -> config

type stats = {
  checks : int;        (** check (ld.c) statements generated *)
  reloads : int;       (** redundant occurrences replaced by temp reads *)
  saves : int;         (** defining occurrences saved into temps *)
  inserts : int;       (** Phi-operand insertions *)
  cspec_phis : int;    (** Phis kept alive by control speculation *)
  items : int;         (** lexically distinct candidate expressions *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

(** The work SSAPRE runs did: deterministic counts that grow with the
    size of the function, not with the speed of the host. *)
type work = {
  mutable queries : int;      (** kill verdicts asked of [Spec_spec.Kills] *)
  mutable pushes : int;       (** Rename stack entries pushed *)
  mutable phis : int;         (** expression Phis created *)
  mutable trace_steps : int;  (** definition-chain steps of Phi-insertion *)
}

val new_work : unit -> work

(** Run one SSAPRE pass over a function in HSSA form with speculation
    flags assigned.  Leaves the function in "flat" (non-SSA-maintained)
    form: run [Spec_ssa.Out_of_ssa] before executing it.  [dom] supplies
    a (possibly cached) dominator tree for the function's current CFG;
    when absent one is computed.  [formals] is [Spec_ssa.Build_ssa]'s
    formal-to-entry-version mapping ([formals_v1]); when absent the
    symbol table is scanned for the entry versions instead.  [work], when
    given, accumulates the run's work counters. *)
val run_func :
  ?dom:Spec_cfg.Dom.t ->
  ?formals:(int * int) list ->
  ?work:work ->
  Spec_ir.Sir.prog -> Spec_alias.Annotate.info -> config -> Spec_ir.Sir.func ->
  stats

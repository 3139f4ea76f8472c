(** Speculative SSA form: speculation-flag assignment to χ/μ operands
    (§3.2.1–§3.2.2 of the paper).

    A flagged χ (χs) is highly likely to be substantiated at runtime and
    must not be ignored; an unflagged χ is a speculative weak update that
    speculative optimization may ignore at the price of a runtime check. *)

type mode =
  | Nonspec
      (** baseline: every may-alias operand is flagged (kills) *)
  | Profile_spec of Spec_prof.Profile.t
      (** flags from the alias profile's LOC sets (§3.2.1) *)
  | Heuristic_spec
      (** flags from the paper's three heuristic rules (§3.2.2) *)

val mode_name : mode -> string

(** LOC of a memory-resident variable (by any of its SSA versions). *)
val var_loc : Spec_ir.Symtab.t -> int -> Spec_ir.Loc.t

(** Adversarial corruption of the flag assignment (stress harness): a
    seeded, deterministic attacker that flips or drops the flags the
    honest policy produced, making the compiler speculate on references
    that really do alias at runtime.  Virtual-variable flags are never
    touched (they carry the conservative value chain). *)
type perturbation = {
  prng : Spec_stress.Srng.t;
  padv : Spec_stress.Faults.adversary;
  pseed : int;
  ppath : string list;
      (** the label path [prng] was derived from; per-decision coins
          (see [Spec_spec.Kills]) extend it *)
  mutable flipped : int;
}

(** [perturbation ~seed ~scope adv] — [None] for {!Spec_stress.Faults.Adv_none};
    otherwise a perturbation whose RNG stream is derived from [seed] and
    the scope labels (deterministic under any [--jobs N]). *)
val perturbation :
  seed:int -> scope:string list -> Spec_stress.Faults.adversary ->
  perturbation option

(** Number of flags flipped/dropped so far. *)
val flipped : perturbation -> int

(** Assign speculation flags to every statement's χ/μ operands.  Must run
    after χ/μ annotation; flags survive SSA renaming (they live on the
    operand records).  [threshold] is the degree-of-likeliness knob: an
    alias relation observed in at most this fraction of a site's profiled
    executions stays speculative (default 0 = the paper's "observed at
    all" criterion).  [perturb] adversarially corrupts the assignment in
    the speculative modes; it is ignored under [Nonspec]. *)
val assign :
  ?threshold:float ->
  ?perturb:perturbation ->
  Spec_ir.Sir.prog ->
  Spec_alias.Annotate.info ->
  mode ->
  unit

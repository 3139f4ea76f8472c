(** Pass manager: the compilation stack as first-class, schedulable
    passes over SIR, with cached analyses (Steensgaard points-to +
    mod/ref, χ/μ annotation, per-function dominator trees), a declared
    invalidation model, per-pass wall time and statistics, and optional
    inter-pass IR verification ([--verify-each]).

    Registered passes: [annotate], [flags], [split-edges], [build-ssa],
    [refine], [ssapre], [out-of-ssa], [store-promo], [strength],
    [cleanup], [spec-safety], [strip-checks].  [Spec_driver.Pipeline]
    schedules them; tests and tools may also drive a {!manager}
    directly. *)

(** {1 Cached analyses} *)

type analysis = Points_to | Chi_mu | Dominators | Safety

val analysis_name : analysis -> string

(** Recomputation/reuse counters: how often each analysis was actually
    computed versus served from the cache. *)
type counters = {
  mutable steensgaard_runs : int;
  mutable modref_runs : int;
  mutable annot_runs : int;
  mutable dom_runs : int;        (** per-function dominator computations *)
  mutable safety_runs : int;     (** speculative-taint checker computations *)
  mutable points_to_hits : int;
  mutable annot_hits : int;
  mutable dom_hits : int;
  mutable safety_hits : int;
}

type cache

val create_cache : Spec_ir.Sir.prog -> cache

(** Steensgaard solution + interprocedural mod/ref summary, computed on
    first demand and cached for the life of the manager (sound across
    the stack's transformations, which never create new sites). *)
val points_to :
  cache -> Spec_alias.Steensgaard.solution * Spec_alias.Modref.t

(** χ/μ annotation, recomputed only after a pass invalidated [Chi_mu]. *)
val annot :
  ?refinements:(int, Spec_ir.Loc.t) Hashtbl.t ->
  cache -> Spec_alias.Annotate.info

(** Memoized per-function dominator tree; recomputed only after a pass
    invalidated [Dominators] (i.e. mutated the CFG). *)
val dom_of : cache -> Spec_ir.Sir.func -> Spec_cfg.Dom.t

(** Memoized speculative-taint report over the current program text
    (runs {!Spec_safety.Taint.check} against the cached points-to
    solution); invalidated together with [Chi_mu], since both describe
    the statement-level text. *)
val safety_of : cache -> Spec_safety.Taint.report

val invalidate : cache -> analysis -> unit

(** {1 Passes} *)

type ctx = {
  prog : Spec_ir.Sir.prog;
  cache : cache;
  mode : Spec_spec.Flags.mode;
  config : Spec_ssapre.Ssapre.config;
  refinements : (int, Spec_ir.Loc.t) Hashtbl.t;
  perturb : Spec_spec.Flags.perturbation option;
  mutable in_ssa : bool;
  mutable ssapre_total : Spec_ssapre.Ssapre.stats;
}

type outcome = {
  touched : bool;                  (** did the pass mutate the program? *)
  invalidates : analysis list;     (** cached analyses it clobbered *)
  counters : (string * int) list;  (** pass-specific statistics *)
}

val analysis_only : outcome

type pass = {
  pname : string;
  pdescr : string;
  prun : ctx -> outcome;
}

val register : pass -> unit
val find_pass : string -> pass
val pass_names : unit -> string list

(** Count check statements dropped; the Aggressive variant's second
    step (exposed for [Pipeline.strip_checks]). *)
val strip_checks : Spec_ir.Sir.prog -> int

(** {1 Manager: scheduling, timing, verification} *)

type pass_stat = {
  ps_pass : string;
  mutable ps_runs : int;
  mutable ps_touched : int;
  mutable ps_time : float;        (** accumulated wall time, seconds *)
  mutable ps_counters : (string * int) list;
}

type report = {
  rp_passes : pass_stat list;     (** in first-run order *)
  rp_counters : counters;
  rp_verified : int;
  rp_total_time : float;
}

val empty_report : unit -> report

(** Raised by [--verify-each]: offending pass name, violation text. *)
exception Verify_error of string * string

type manager

val create :
  ?verify_each:bool ->
  ?perturb:Spec_spec.Flags.perturbation ->
  mode:Spec_spec.Flags.mode ->
  config:Spec_ssapre.Ssapre.config ->
  Spec_ir.Sir.prog ->
  manager

val context : manager -> ctx
val run_pass : manager -> string -> unit
val run_passes : manager -> string list -> unit
val report : manager -> report

(** {1 Fused per-function segments (parallel pipeline)}

    Each entry runs its whole-program barrier passes sequentially, then
    fans the per-function portion out to the {!Parpool} global pool —
    one task per function on a program view with a cloned symbol table
    — and commits results deterministically in [func_order], so
    [--jobs n] output is byte-identical to [--jobs 1].  SSA versions
    stay task-local: only surviving temporaries reach the shared symbol
    table.  Sub-pass stats are recorded under the same names as the
    registered passes, one run per segment invocation. *)

(** [annotate] barrier, then per-function
    split-edges / build-ssa / refine / out-of-ssa. *)
val fused_prepass : manager -> unit

(** [annotate] + [flags] barriers, then per-function
    split-edges / build-ssa / ssapre / out-of-ssa. *)
val fused_round : manager -> unit

(** [annotate] barrier (timed under store-promo, as in the sequential
    schedule), then per-function store-promo / strength? / cleanup /
    strip-checks?.  [deopt_vbase] makes cleanup pin lowering-era
    variables (deoptimization state).  Returns, per function, whether
    store promotion or LFTR transformed it — such functions must not
    keep deoptimization descriptors. *)
val fused_post :
  manager -> ?deopt_vbase:int -> strength:bool -> strip:bool -> unit ->
  (string * bool) list

(** Pass runs summed over every pass of a report (0 for a compile served
    from the cache). *)
val total_runs : report -> int

val counters_to_string : counters -> string
val report_to_string : report -> string

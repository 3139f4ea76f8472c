(** Compilation pipelines: the paper's analysis and optimization stack

      alias analysis -> chi/mu annotation -> speculation flags -> HSSA ->
      speculative SSAPRE -> out of SSA

    iterated for a few rounds (so loads nested inside other loads promote
    outside-in), preceded by a flow-sensitive refinement prepass and
    followed by strength reduction. *)

type variant =
  | Base                                    (** O3-like nonspeculative PRE *)
  | Spec_profile of Spec_prof.Profile.t     (** data speculation from profile *)
  | Spec_heuristic                          (** data speculation from rules *)
  | Aggressive                              (** §5.3 no-check upper bound *)
  | Noopt                                   (** no PRE at all *)

val variant_name : variant -> string

(** Drop every check statement — the Aggressive variant's second step;
    correct only when no aliasing actually occurs at runtime. *)
val strip_checks : Spec_ir.Sir.prog -> unit

type result = {
  prog : Spec_ir.Sir.prog;
  stats : Spec_ssapre.Ssapre.stats;
  variant : variant;
  report : Passes.report;
      (** per-pass wall time, statistics, and analysis-cache counters *)
  from_cache : bool;
      (** true when the optimized program came out of the compile cache
          (the report is then empty: no passes ran) *)
  vm : Spec_prof.Vmcode.program Lazy.t;
      (** threaded-code lowering of [prog] for the vm engine, lowered on
          first use — on a cache hit too: the artifact holds only the
          program *)
  safety : Spec_safety.Taint.report option;
      (** speculative-taint report over the optimized program, present
          when the compile ran with [~safety:true] *)
}

val mode_of_variant : variant -> Spec_spec.Flags.mode

(** The pass schedules [optimize] runs on the {!Passes} manager: the
    refinement prepass and one outside-in promotion round. *)
val prepass_schedule : string list
val round_schedule : string list

(** Optimize [prog] destructively.  [rounds] bounds outside-in promotion
    depth (default 3); [edge_profile] enables control speculation and
    block frequencies; [config] overrides the SSAPRE configuration;
    [strength] toggles strength reduction + LFTR (default on);
    [verify_each] validates CFG and SSA invariants between passes,
    raising [Passes.Verify_error] naming the offending pass; [perturb]
    adversarially corrupts the speculation-flag assignment (stress
    harness — outputs must stay correct, only slower).

    [deopt] (default off) compiles in deoptimization support: cleanup
    pins lowering-era variables, surviving check statements get
    descriptors mapping optimized live state to the unoptimized program
    point, and functions transformed by store promotion or LFTR have
    their descriptors cleared (engines fall back to reload recovery
    there).  [safety] (default off) runs the [spec-safety] pass after
    optimization and surfaces the taint report in the result. *)
val optimize :
  ?rounds:int ->
  ?config:Spec_ssapre.Ssapre.config option ->
  ?edge_profile:Spec_prof.Profile.t option ->
  ?strength:bool ->
  ?verify_each:bool ->
  ?deopt:bool ->
  ?safety:bool ->
  ?perturb:Spec_spec.Flags.perturbation ->
  Spec_ir.Sir.prog ->
  variant ->
  result

(** Cached-compile artifact ([specart/5]): the optimized program and
    its SSAPRE totals.  On disk: a version line, a [stats] line, then
    the {!Spec_fdo.Sir_io} text to the end of the file, whose own [end]
    line makes a truncated artifact fail to read. *)
type artifact = {
  a_stats : Spec_ssapre.Ssapre.stats;
  a_prog : Spec_ir.Sir.prog;
}

val artifact_version : string
val write_artifact : result -> string
val read_artifact : string -> (artifact, string) Stdlib.result

(** Content-addressed cache key over every compile input: schema
    versions, source text, variant + knobs, and the digest of the
    profile evidence (a {!Spec_fdo.Store} digest). *)
val cache_key :
  rounds:int ->
  strength:bool ->
  deopt:bool ->
  config:Spec_ssapre.Ssapre.config ->
  variant:variant ->
  edge_profile:bool ->
  profile_digest:string option ->
  string ->
  string

(** Compile source and optimize.  With [cache], consult the compile
    cache first — a hit deserializes the optimized program and skips
    every pass (the result carries [from_cache = true] and an empty
    report).  [profile_digest] must identify the profile evidence
    whenever a profile feeds the compile; profile-fed compiles without
    it, and any adversarially perturbed compile, bypass the cache.  A
    cold result that cannot be stored ([Sys_error] from
    {!Spec_fdo.Cache.store}) is still returned; the failure is counted
    in the cache's [store_failures]. *)
val compile_and_optimize :
  ?rounds:int ->
  ?config:Spec_ssapre.Ssapre.config option ->
  ?edge_profile:Spec_prof.Profile.t option ->
  ?strength:bool ->
  ?deopt:bool ->
  ?safety:bool ->
  ?verify_each:bool ->
  ?perturb:Spec_spec.Flags.perturbation ->
  ?cache:Spec_fdo.Cache.t ->
  ?profile_digest:string ->
  string ->
  variant ->
  result

(** Compile the source and run it once under the instrumented training
    interpreter: the lowered program (the site table stored profiles are
    keyed against), the collected profile, and the training run's
    result.  The single profiling entry point — callers thread the
    triple through instead of re-running the interpreter. *)
val train :
  ?fuel:int ->
  string ->
  Spec_ir.Sir.prog * Spec_prof.Profile.t * Spec_prof.Interp.result

(** Profile a fresh compile of the source (with whatever input its [main]
    selects); feed the result to a [Spec_profile] pipeline of another
    compile of the same source. *)
val profile_of_source : ?fuel:int -> string -> Spec_prof.Profile.t

(** Compilation pipelines, scheduled on the {!Passes} manager.

    A pipeline takes a freshly lowered SIR program through the paper's
    analysis and optimization stack:

      alias analysis -> χ/μ annotation -> speculation flags -> HSSA ->
      speculative SSAPRE -> out of SSA

    repeated for a few rounds so loads nested inside other loads (e.g.
    [A\[i\]\[j\]], which is an iload of an iload) get promoted outside-in,
    then store promotion, strength reduction and scalar cleanup.  The
    schedule is expressed as named passes over a {!Passes.manager}, so
    expensive analyses (Steensgaard points-to, mod/ref, dominator trees)
    are computed once and reused across rounds, every pass is timed, and
    [verify_each] checks IR invariants between passes.  The resulting
    program still runs on the reference interpreter and can be lowered
    to the ITL machine. *)

open Spec_ir
open Spec_prof
open Spec_spec
open Spec_ssapre

type variant =
  | Base                         (** -O3-like: nonspeculative PRE *)
  | Spec_profile of Profile.t    (** data speculation from alias profile *)
  | Spec_heuristic               (** data speculation from heuristic rules *)
  | Aggressive                   (** upper bound: ignore aliases, no checks *)
  | Noopt                        (** no PRE at all *)

let variant_name = function
  | Base -> "base"
  | Spec_profile _ -> "profile"
  | Spec_heuristic -> "heuristic"
  | Aggressive -> "aggressive"
  | Noopt -> "noopt"

(** The Aggressive variant reuses the heuristic speculation machinery but
    drops the checks afterwards — it models the paper's §5.3 "aggressive
    register promotion" upper bound, which allocates memory references to
    registers without considering potential aliasing (correct only when no
    aliasing actually occurs at runtime). *)
let strip_checks (prog : Sir.prog) = ignore (Passes.strip_checks prog : int)

type result = {
  prog : Sir.prog;
  stats : Ssapre.stats;
  variant : variant;
  report : Passes.report;
      (** per-pass wall time, statistics, and analysis-cache counters *)
  from_cache : bool;
      (** true when the optimized program came out of the compile cache
          (the report is then empty: no passes ran) *)
  vm : Vmcode.program Lazy.t;
      (** threaded-code lowering of [prog] for the vm engine, lowered on
          first use; the compile cache stores only [prog] *)
  safety : Spec_safety.Taint.report option;
      (** speculative-taint report over the optimized program, present
          when the compile ran with [~safety:true] *)
}

let mode_of_variant = function
  | Base | Noopt -> Flags.Nonspec
  | Spec_profile p -> Flags.Profile_spec p
  | Spec_heuristic | Aggressive -> Flags.Heuristic_spec

(** The flow-sensitive refinement prepass (Figure 4's last stage): build
    SSA once, record definite pointer targets into the manager's
    refinement table, and drop back out of SSA.  Every later annotation
    consumes the recorded facts. *)
let prepass_schedule = [ "annotate"; "split-edges"; "build-ssa"; "refine";
                         "out-of-ssa" ]

(** One outside-in promotion round. *)
let round_schedule = [ "annotate"; "flags"; "split-edges"; "build-ssa";
                       "ssapre"; "out-of-ssa" ]

(** Run the optimizer on [prog] (destructively).  [rounds] bounds the
    outside-in promotion depth; [edge_profile] enables control
    speculation; [verify_each] validates CFG and SSA invariants between
    passes, naming the offending pass on failure; [perturb]
    adversarially corrupts the speculation-flag assignment (stress
    harness).

    [deopt] compiles in deoptimization support: cleanup pins
    lowering-era variables, every surviving check statement gets a
    descriptor mapping optimized live state back to the unoptimized
    program point, and functions transformed by store promotion or LFTR
    (whose state mapping the descriptors cannot express) have their
    descriptors cleared again — the engines fall back to reload
    recovery there.  Off by default so existing compiles stay
    byte-identical.

    [safety] runs the [spec-safety] pass after optimization (one more
    pass-timing row) and surfaces the speculative-taint report in the
    result. *)
let optimize ?(rounds = 3) ?(config = None) ?(edge_profile = None)
    ?(strength = true) ?(verify_each = false) ?(deopt = false)
    ?(safety = false) ?perturb (prog : Sir.prog)
    (variant : variant) : result =
  let mode = mode_of_variant variant in
  let base_cfg =
    match config with
    | Some c -> c
    | None -> Ssapre.default_config mode
  in
  let cfg =
    (* an explicit config keeps its own adversary; the optimize-level
       [perturb] wins when supplied (stress harness) *)
    match perturb with
    | Some _ -> { base_cfg with Ssapre.mode; Ssapre.adversary = perturb }
    | None -> { base_cfg with Ssapre.mode }
  in
  (match edge_profile with
   | Some p -> Profile.annotate_block_freqs p prog
   | None -> ());
  if variant = Noopt then
    { prog; stats = Ssapre.zero_stats; variant;
      report = Passes.empty_report (); from_cache = false;
      vm = lazy (Vmcode.compile prog);
      safety =
        if safety then Some (Spec_safety.Taint.check prog) else None }
  else begin
    (* deoptimization baseline: everything below these marks is
       lowering-era state, reproducible by re-lowering the same source *)
    let vbase = Symtab.count prog.Sir.syms in
    let sbase = prog.Sir.next_stmt in
    let mgr = Passes.create ~verify_each ?perturb ~mode ~config:cfg prog in
    (* the same logical schedule as [prepass_schedule] / [round_schedule],
       fused: whole-program analyses run as sequential barriers and the
       per-function segment in between fans out to the [Parpool] global
       pool ([--jobs n]), joining deterministically in function order *)
    Passes.fused_prepass mgr;
    for _round = 1 to rounds do
      Passes.fused_round mgr
    done;
    (* store promotion (SPRE of stores): runs on the de-versioned program
       with a fresh annotation; speculative policies allow promotion past
       unlikely-aliasing stores with ld.c recovery *)
    let hazards =
      Passes.fused_post mgr
        ?deopt_vbase:(if deopt then Some vbase else None)
        ~strength ~strip:(variant = Aggressive) ()
    in
    if deopt then begin
      ignore (Spec_safety.Deopt.attach prog ~sbase ~vbase : int);
      List.iter
        (fun (fname, unsafe) ->
           if unsafe then
             ignore
               (Spec_safety.Deopt.clear_func (Sir.find_func prog fname)
                : int))
        hazards
    end;
    let safety_report =
      if safety then begin
        Passes.run_pass mgr "spec-safety";
        Some (Passes.safety_of (Passes.context mgr).Passes.cache)
      end else None
    in
    { prog; stats = (Passes.context mgr).Passes.ssapre_total; variant;
      report = Passes.report mgr; from_cache = false;
      vm = lazy (Vmcode.compile prog); safety = safety_report }
  end

(* ------------------------------------------------------------------ *)
(* Compile cache (persistent FDO)                                      *)
(* ------------------------------------------------------------------ *)

(** Cached-compile artifact: the optimized program and its SSAPRE
    totals.  A warm compile runs no passes, so its report is empty, and
    lowers the bytecode from [a_prog] only when something executes it. *)
type artifact = {
  a_stats : Ssapre.stats;
  a_prog : Sir.prog;
}

(* /2: the fused parallel pipeline renames temporaries after their
   committed ids and renumbers segment-allocated statement ids, so
   optimized programs differ textually from /1 artifacts.
   /3: a [vm] section carrying the serialized bytecode.
   /4: the program section is specsir/2 (secret bits + deoptimization
   descriptors), the vm section gained descriptor tables, and the cache
   key includes the deopt flag — a deopt compile pins variables and
   attaches descriptors, so its output differs from a plain compile's.
   /5: no vm or report section; the specsir/2 text follows the stats
   line verbatim and runs to the end of the file, so its own version
   tag and [end] line frame it. *)
let artifact_version = "specart/5"

let write_artifact (r : result) : string =
  let s = r.stats in
  Printf.sprintf "%s\nstats %d %d %d %d %d %d\n%s" artifact_version
    s.Ssapre.checks s.Ssapre.reloads s.Ssapre.saves s.Ssapre.inserts
    s.Ssapre.cspec_phis s.Ssapre.items
    (Spec_fdo.Sir_io.write r.prog)

let read_artifact (s : string) : (artifact, string) Stdlib.result =
  let open Spec_fdo in
  let lx = Textio.make s in
  try
    Textio.expect lx artifact_version;
    Textio.expect lx "stats";
    let checks = Textio.int_tok lx in
    let reloads = Textio.int_tok lx in
    let saves = Textio.int_tok lx in
    let inserts = Textio.int_tok lx in
    let cspec_phis = Textio.int_tok lx in
    let items = Textio.int_tok lx in
    let a_prog = Sir_io.read_from lx in
    Ok { a_stats =
           { Ssapre.checks; reloads; saves; inserts; cspec_phis; items };
         a_prog }
  with Textio.Error msg -> Error msg

(* Everything that determines the optimized output goes into the key:
   schema versions, the source text, the variant and its knobs, and the
   digest of the profile evidence.  [verify_each] is excluded (it checks
   invariants; it never changes the output). *)
let cache_key ~rounds ~strength ~deopt ~(config : Ssapre.config) ~variant
    ~edge_profile ~profile_digest src =
  let fp =
    String.concat "\x00"
      [ artifact_version; Spec_fdo.Sir_io.version; src; variant_name variant;
        string_of_int rounds; string_of_bool strength;
        (if deopt then "deopt" else "-");
        string_of_bool config.Ssapre.control_spec;
        string_of_bool config.Ssapre.cspec_always;
        Printf.sprintf "%h" config.Ssapre.cspec_ratio;
        string_of_bool config.Ssapre.arith_pre;
        Printf.sprintf "%h" config.Ssapre.alias_threshold;
        (if edge_profile then "ep" else "-");
        (match profile_digest with Some d -> d | None -> "-") ]
  in
  Digest.to_hex (Digest.string fp)

(* Store a fresh compile in the cache.  A cache directory that vanished
   or cannot be written costs later compiles their warm hit, not this
   one its answer: the failure is counted and the result returned. *)
let store_artifact c key r =
  match Spec_fdo.Cache.store c key (write_artifact r) with
  | () -> ()
  | exception Sys_error _ ->
    let st = Spec_fdo.Cache.stats c in
    st.Spec_fdo.Cache.store_failures <- st.Spec_fdo.Cache.store_failures + 1

(** Convenience: compile source and optimize.

    With [cache], look the compile up in the content-addressed cache
    first: a hit deserializes the optimized program and skips every
    pass.  [profile_digest] must identify the profile evidence (the
    {!Spec_fdo.Store} digest) whenever a profile feeds the compile —
    without it, profile-fed compiles bypass the cache rather than risk
    serving an artifact built from different evidence.  Adversarial
    perturbation always bypasses the cache (stress runs are meant to be
    recomputed). *)
let compile_and_optimize ?(rounds = 3) ?(config = None) ?(edge_profile = None)
    ?(strength = true) ?(deopt = false) ?(safety = false) ?verify_each
    ?perturb ?cache ?profile_digest src variant =
  let cold () =
    let prog = Lower.compile src in
    optimize ~rounds ~config ~edge_profile ~strength ~deopt ~safety
      ?verify_each ?perturb prog variant
  in
  let cfg =
    match config with
    | Some c -> c
    | None -> Ssapre.default_config (mode_of_variant variant)
  in
  let needs_digest =
    (match variant with Spec_profile _ -> true | _ -> false)
    || edge_profile <> None
  in
  let bypass =
    perturb <> None
    || cfg.Ssapre.adversary <> None
    || (needs_digest && profile_digest = None)
  in
  match cache with
  | Some c when not bypass ->
    let key =
      cache_key ~rounds ~strength ~deopt ~config:cfg ~variant
        ~edge_profile:(edge_profile <> None) ~profile_digest src
    in
    (match Spec_fdo.Cache.find c key with
     | Some data ->
       (match read_artifact data with
        | Ok a ->
          let sr =
            (* warm hits re-run the (cheap) checker over the
               deserialized program rather than persisting the report *)
            if safety then
              Some (Spec_safety.Taint.check
                      ~pt:(Spec_alias.Steensgaard.solve a.a_prog) a.a_prog)
            else None
          in
          { prog = a.a_prog; stats = a.a_stats; variant;
            report = Passes.empty_report (); from_cache = true;
            vm = lazy (Vmcode.compile a.a_prog); safety = sr }
        | Error _ ->
          (* corrupt artifact: recount as a miss and recompile over it *)
          let st = Spec_fdo.Cache.stats c in
          st.Spec_fdo.Cache.hits <- st.Spec_fdo.Cache.hits - 1;
          st.Spec_fdo.Cache.misses <- st.Spec_fdo.Cache.misses + 1;
          let r = cold () in
          store_artifact c key r;
          r)
     | None ->
       let r = cold () in
       store_artifact c key r;
       r)
  | _ -> cold ()

(** Compile [src] and run it under the instrumented training
    interpreter once, returning the lowered program (needed to key
    stored profiles by site), the profile, and the training run's
    result.  The single profiling entry point: callers thread the
    triple through instead of re-running the interpreter. *)
let train ?fuel src =
  let prog = Lower.compile src in
  let prof, res = Profiler.profile ?fuel prog in
  (prog, prof, res)

(** Profile a fresh compile of [src] (with whatever input [main] selects)
    and return the profile for feeding a [Spec_profile] pipeline of
    another compile. *)
let profile_of_source ?fuel src =
  let _, prof, _ = train ?fuel src in
  prof

(** Pass manager: the compilation stack as first-class, schedulable
    passes over SIR with cached analyses, per-pass timing/stats, and
    optional inter-pass IR verification.

    The paper (Figure 3) frames speculative analysis as a framework of
    cooperating phases; here each phase is a registered, named pass.  The
    manager owns an analysis cache with a declared invalidation model:

    - {b Points-to} — the Steensgaard solution plus the interprocedural
      mod/ref summary.  Sound across every transformation in the stack
      (transforms reuse existing reference sites and never create new
      address-taken relations), so it is computed once per [optimize]
      call instead of once per promotion round.
    - {b Chi-mu} — the χ/μ annotation ([Spec_alias.Annotate.info]).
      Statement-level lists are wiped by [out-of-ssa] and clobbered by
      any transform that rewrites memory statements, so those passes
      invalidate it; within a round annotate/flags/ssapre share one
      computation.
    - {b Dominators} — per-function dominator trees, keyed by function
      name.  Valid while the CFG (block set and edges) is unchanged;
      only [split-edges] mutates the CFG, and only when it actually
      splits an edge.

    A pass reports whether it mutated the program and which analyses it
    clobbered; the manager invalidates exactly those.  Every pass run
    records wall time and its own counters into a unified {!pass_stat}
    record (nothing is [ignore]d any more), surfaced via
    [speccc stats --timings] and [bench/main.exe --json]. *)

open Spec_ir
open Spec_cfg
open Spec_spec
open Spec_ssapre

(* ------------------------------------------------------------------ *)
(* Analysis cache                                                      *)
(* ------------------------------------------------------------------ *)

type analysis = Points_to | Chi_mu | Dominators | Safety

let analysis_name = function
  | Points_to -> "points-to"
  | Chi_mu -> "chi-mu"
  | Dominators -> "dominators"
  | Safety -> "safety"

(** Recomputation/reuse counters, for observability and for the tests
    that pin down how much work the cache saves versus the old pipeline
    (which re-ran Steensgaard every round and rebuilt dominator trees in
    every client). *)
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

let fresh_counters () =
  { steensgaard_runs = 0; modref_runs = 0; annot_runs = 0; dom_runs = 0;
    safety_runs = 0; points_to_hits = 0; annot_hits = 0; dom_hits = 0;
    safety_hits = 0 }

type cache = {
  cprog : Sir.prog;
  mutable points_to :
    (Spec_alias.Steensgaard.solution * Spec_alias.Modref.t) option;
  mutable chi_mu : Spec_alias.Annotate.info option;
  doms : (string, Dom.t) Hashtbl.t;
  mutable safety : Spec_safety.Taint.report option;
      (** speculative-taint report over the current program text; any
          transform that clobbers χ/μ also clobbers this *)
  counters : counters;
}

let create_cache prog =
  { cprog = prog; points_to = None; chi_mu = None;
    doms = Hashtbl.create 8; safety = None; counters = fresh_counters () }

let points_to cache =
  match cache.points_to with
  | Some pt ->
    cache.counters.points_to_hits <- cache.counters.points_to_hits + 1;
    pt
  | None ->
    let sol = Spec_alias.Steensgaard.solve cache.cprog in
    cache.counters.steensgaard_runs <- cache.counters.steensgaard_runs + 1;
    let modref = Spec_alias.Modref.compute cache.cprog sol in
    cache.counters.modref_runs <- cache.counters.modref_runs + 1;
    let pt = (sol, modref) in
    cache.points_to <- Some pt;
    pt

let annot ?refinements cache =
  match cache.chi_mu with
  | Some info ->
    cache.counters.annot_hits <- cache.counters.annot_hits + 1;
    info
  | None ->
    let pt = points_to cache in
    let info =
      Spec_alias.Annotate.run ?refinements ~points_to:pt cache.cprog
    in
    cache.counters.annot_runs <- cache.counters.annot_runs + 1;
    cache.chi_mu <- Some info;
    info

let dom_of cache (f : Sir.func) =
  match Hashtbl.find_opt cache.doms f.Sir.fname with
  | Some d ->
    cache.counters.dom_hits <- cache.counters.dom_hits + 1;
    d
  | None ->
    Sir.recompute_preds f;
    let d = Dom.compute f in
    cache.counters.dom_runs <- cache.counters.dom_runs + 1;
    Hashtbl.replace cache.doms f.Sir.fname d;
    d

(** Cached speculative-taint report; recomputed whenever the program
    text changed since the last check (it shares χ/μ's invalidation
    trigger: both describe the current statements). *)
let safety_of cache =
  match cache.safety with
  | Some r ->
    cache.counters.safety_hits <- cache.counters.safety_hits + 1;
    r
  | None ->
    let sol, _ = points_to cache in
    let r = Spec_safety.Taint.check ~pt:sol cache.cprog in
    cache.counters.safety_runs <- cache.counters.safety_runs + 1;
    cache.safety <- Some r;
    r

let invalidate cache = function
  | Points_to -> cache.points_to <- None
  | Chi_mu ->
    cache.chi_mu <- None;
    (* the taint report describes the same statement-level text *)
    cache.safety <- None
  | Dominators -> Hashtbl.reset cache.doms
  | Safety -> cache.safety <- None

(* ------------------------------------------------------------------ *)
(* Pass context, outcomes, registry                                    *)
(* ------------------------------------------------------------------ *)

type ctx = {
  prog : Sir.prog;
  cache : cache;
  mode : Flags.mode;
  config : Ssapre.config;
  refinements : (int, Loc.t) Hashtbl.t;
      (** flow-sensitive definite-target facts, filled by the [refine]
          pass and consumed by every later χ/μ annotation *)
  perturb : Flags.perturbation option;
      (** adversarial corruption of the flag assignment (stress runs) *)
  mutable in_ssa : bool;
      (** true between [build-ssa] and the next SSA-destroying pass;
          gates the SSA half of inter-pass verification *)
  mutable ssapre_total : Ssapre.stats;
      (** aggregated SSAPRE statistics across rounds, for [result] *)
}

type outcome = {
  touched : bool;                  (** did the pass mutate the program? *)
  invalidates : analysis list;     (** cached analyses it clobbered *)
  counters : (string * int) list;  (** pass-specific statistics *)
}

let analysis_only = { touched = false; invalidates = []; counters = [] }

type pass = {
  pname : string;
  pdescr : string;
  prun : ctx -> outcome;
}

let registry : (string, pass) Hashtbl.t = Hashtbl.create 16
let register p = Hashtbl.replace registry p.pname p

let find_pass name =
  match Hashtbl.find_opt registry name with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "Passes.find_pass: unknown pass %S (known: %s)" name
         (String.concat ", "
            (List.sort compare
               (Hashtbl.fold (fun n _ acc -> n :: acc) registry []))))

let pass_names () =
  List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) registry [])

(* ------------------------------------------------------------------ *)
(* The registered passes                                               *)
(* ------------------------------------------------------------------ *)

let count_spec_operands prog =
  let mus = ref 0 and chis = ref 0 in
  Sir.iter_funcs
    (fun f ->
      Vec.iter
        (fun (b : Sir.bb) ->
          List.iter
            (fun (s : Sir.stmt) ->
              List.iter
                (fun (m : Sir.mu) -> if m.Sir.mu_spec then incr mus)
                s.Sir.mus;
              List.iter
                (fun (c : Sir.chi) -> if c.Sir.chi_spec then incr chis)
                s.Sir.chis)
            b.Sir.stmts)
        f.Sir.fblocks)
    prog;
  (!mus, !chis)

let count_phis prog =
  let n = ref 0 in
  Sir.iter_funcs
    (fun f ->
      Vec.iter
        (fun (b : Sir.bb) -> n := !n + List.length b.Sir.phis)
        f.Sir.fblocks)
    prog;
  !n

(** Drop every check statement — the Aggressive variant's second step;
    correct only when no aliasing actually occurs at runtime. *)
let strip_checks (prog : Sir.prog) : int =
  let stripped = ref 0 in
  Sir.iter_funcs
    (fun f ->
      Vec.iter
        (fun (b : Sir.bb) ->
          b.Sir.stmts <-
            List.filter
              (fun (s : Sir.stmt) ->
                let keep = s.Sir.mark <> Sir.Mchk in
                if not keep then incr stripped;
                keep)
              b.Sir.stmts)
        f.Sir.fblocks)
    prog;
  !stripped

let p_annotate =
  { pname = "annotate";
    pdescr = "alias classes + interprocedural mod/ref + chi/mu lists";
    prun =
      (fun ctx ->
        let info = annot ~refinements:ctx.refinements ctx.cache in
        { touched = true;
          invalidates = [];
          counters =
            [ "sites", Hashtbl.length info.Spec_alias.Annotate.site_vv ] }) }

let p_flags =
  { pname = "flags";
    pdescr = "speculation-flag assignment to chi/mu operands";
    prun =
      (fun ctx ->
        let info = annot ~refinements:ctx.refinements ctx.cache in
        Flags.assign ~threshold:ctx.config.Ssapre.alias_threshold
          ?perturb:ctx.perturb ctx.prog info ctx.mode;
        let mus, chis = count_spec_operands ctx.prog in
        { touched = true;
          invalidates = [];
          counters =
            (match ctx.perturb with
             | Some p -> [ "flagged-mus", mus; "flagged-chis", chis;
                           "adversary-flips", Flags.flipped p ]
             | None -> [ "flagged-mus", mus; "flagged-chis", chis ]) }) }

let p_split_edges =
  { pname = "split-edges";
    pdescr = "split critical CFG edges (SSAPRE insertion points)";
    prun =
      (fun ctx ->
        let n = ref 0 in
        Sir.iter_funcs
          (fun f -> n := !n + Cfg_utils.split_critical_edges f)
          ctx.prog;
        { touched = !n > 0;
          invalidates = (if !n > 0 then [ Dominators ] else []);
          counters = [ "edges-split", !n ] }) }

let p_build_ssa =
  { pname = "build-ssa";
    pdescr = "HSSA construction (phi insertion + renaming)";
    prun =
      (fun ctx ->
        ignore
          (Spec_ssa.Build_ssa.build ~dom_of:(dom_of ctx.cache) ctx.prog
           : Spec_ssa.Build_ssa.t list);
        ctx.in_ssa <- true;
        { touched = true;
          invalidates = [];
          counters = [ "phis", count_phis ctx.prog ] }) }

let p_refine =
  { pname = "refine";
    pdescr = "flow-sensitive pointer refinement (definite targets)";
    prun =
      (fun ctx ->
        ignore
          (Spec_ssa.Refine.compute ~acc:ctx.refinements ctx.prog
           : (int, Loc.t) Hashtbl.t);
        (* later annotations depend on the refinement facts *)
        { touched = false;
          invalidates = [ Chi_mu ];
          counters =
            [ "refined-sites", Hashtbl.length ctx.refinements ] }) }

(* what SSAPRE changed, then the work it did *)
let ssapre_counters (s : Ssapre.stats) (w : Ssapre.work) =
  [ ("items", s.Ssapre.items); ("checks", s.Ssapre.checks);
    ("reloads", s.Ssapre.reloads); ("saves", s.Ssapre.saves);
    ("inserts", s.Ssapre.inserts); ("cspec-phis", s.Ssapre.cspec_phis);
    ("kill-queries", w.Ssapre.queries); ("pushes", w.Ssapre.pushes);
    ("pre-phis", w.Ssapre.phis); ("trace-steps", w.Ssapre.trace_steps) ]

let p_ssapre =
  { pname = "ssapre";
    pdescr = "speculative SSAPRE (register promotion of loads)";
    prun =
      (fun ctx ->
        let info = annot ~refinements:ctx.refinements ctx.cache in
        let st = ref Ssapre.zero_stats in
        let work = Ssapre.new_work () in
        Sir.iter_funcs
          (fun f ->
            let dom = dom_of ctx.cache f in
            st :=
              Ssapre.add_stats !st
                (Ssapre.run_func ~dom ~work ctx.prog info ctx.config f))
          ctx.prog;
        ctx.ssapre_total <- Ssapre.add_stats ctx.ssapre_total !st;
        (* run_func leaves functions in flat (non-SSA-maintained) form *)
        ctx.in_ssa <- false;
        let s = !st in
        let touched =
          s.Ssapre.checks + s.Ssapre.reloads + s.Ssapre.saves
          + s.Ssapre.inserts > 0
        in
        { touched;
          invalidates = (if touched then [ Chi_mu ] else []);
          counters =
            ssapre_counters s work }) }

let p_out_of_ssa =
  { pname = "out-of-ssa";
    pdescr = "de-version SIR, drop phis and chi/mu annotations";
    prun =
      (fun ctx ->
        Spec_ssa.Out_of_ssa.run ctx.prog;
        ctx.in_ssa <- false;
        (* statement-level chi/mu lists are wiped by de-versioning *)
        { touched = true; invalidates = [ Chi_mu ]; counters = [] }) }

let p_store_promo =
  { pname = "store-promo";
    pdescr = "speculative register promotion of stores (SPRE)";
    prun =
      (fun ctx ->
        let info = annot ~refinements:ctx.refinements ctx.cache in
        let kctx =
          Kills.create ~alias_threshold:ctx.config.Ssapre.alias_threshold
            ?adversary:ctx.perturb ctx.prog info ctx.mode
        in
        let st =
          Spec_ssapre.Store_promo.run ~dom_of:(dom_of ctx.cache) ctx.prog
            info kctx
        in
        let touched = st.Store_promo.promoted > 0 in
        { touched;
          invalidates = (if touched then [ Chi_mu ] else []);
          counters =
            [ "promoted", st.Store_promo.promoted;
              "loads-gone", st.Store_promo.loads_gone;
              "stores-gone", st.Store_promo.stores_gone;
              "checks", st.Store_promo.checks ] }) }

let p_strength =
  { pname = "strength";
    pdescr = "strength reduction + linear function test replacement";
    prun =
      (fun ctx ->
        let st =
          Spec_ssapre.Strength.run ~dom_of:(dom_of ctx.cache) ctx.prog
        in
        let touched = st.Strength.reduced + st.Strength.lftr > 0 in
        { touched;
          invalidates = (if touched then [ Chi_mu ] else []);
          counters =
            [ "reduced", st.Strength.reduced; "lftr", st.Strength.lftr ] }) }

let p_cleanup =
  { pname = "cleanup";
    pdescr = "constant folding, copy propagation, dead-code elimination";
    prun =
      (fun ctx ->
        let st = Spec_ssapre.Cleanup.run ctx.prog in
        let touched =
          st.Cleanup.folded + st.Cleanup.propagated + st.Cleanup.removed > 0
        in
        { touched;
          invalidates = (if touched then [ Chi_mu ] else []);
          counters =
            [ "folded", st.Cleanup.folded;
              "propagated", st.Cleanup.propagated;
              "removed", st.Cleanup.removed ] }) }

let p_spec_safety =
  { pname = "spec-safety";
    pdescr = "speculative-taint safety checker over the optimized IR";
    prun =
      (fun ctx ->
        let rep = safety_of ctx.cache in
        { touched = false;
          invalidates = [];
          counters =
            [ "confirmed", rep.Spec_safety.Taint.rp_confirmed;
              "plausible", rep.Spec_safety.Taint.rp_plausible ] }) }

let p_strip_checks =
  { pname = "strip-checks";
    pdescr = "drop runtime checks (Aggressive upper-bound variant)";
    prun =
      (fun ctx ->
        let n = strip_checks ctx.prog in
        { touched = n > 0;
          invalidates = (if n > 0 then [ Chi_mu ] else []);
          counters = [ "stripped", n ] }) }

let () =
  List.iter register
    [ p_annotate; p_flags; p_split_edges; p_build_ssa; p_refine; p_ssapre;
      p_out_of_ssa; p_store_promo; p_strength; p_cleanup; p_spec_safety;
      p_strip_checks ]

(* ------------------------------------------------------------------ *)
(* Manager: scheduling, timing, verification                           *)
(* ------------------------------------------------------------------ *)

type pass_stat = {
  ps_pass : string;
  mutable ps_runs : int;
  mutable ps_touched : int;     (** runs that reported a mutation *)
  mutable ps_time : float;      (** accumulated wall time, seconds *)
  mutable ps_counters : (string * int) list;  (** summed across runs *)
}

type report = {
  rp_passes : pass_stat list;   (** in first-run order *)
  rp_counters : counters;
  rp_verified : int;            (** inter-pass verification runs *)
  rp_total_time : float;
}

let empty_report () =
  { rp_passes = []; rp_counters = fresh_counters (); rp_verified = 0;
    rp_total_time = 0. }

(** Raised by [--verify-each] with the name of the offending pass and
    the underlying invariant violation. *)
exception Verify_error of string * string

type manager = {
  mctx : ctx;
  verify_each : bool;
  mstats : (string, pass_stat) Hashtbl.t;
  mutable morder : string list;   (* reverse first-run order *)
  mutable mverified : int;
  mutable mtotal : float;
}

let create ?(verify_each = false) ?perturb ~mode ~config prog =
  { mctx =
      { prog; cache = create_cache prog; mode; config;
        refinements = Hashtbl.create 16; perturb; in_ssa = false;
        ssapre_total = Ssapre.zero_stats };
    verify_each; mstats = Hashtbl.create 16; morder = []; mverified = 0;
    mtotal = 0. }

let context mgr = mgr.mctx

let merge_counters old add =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some v0 -> (k, v0 + v) :: List.remove_assoc k acc
      | None -> acc @ [ (k, v) ])
    old add

(** Structural IR verification between passes: CFG invariants always,
    SSA invariants while the program is in SSA form.  Names the pass
    that broke the IR on failure. *)
let verify mgr pass_name =
  mgr.mverified <- mgr.mverified + 1;
  try
    Sir.iter_funcs (fun f -> Cfg_utils.validate f) mgr.mctx.prog;
    if mgr.mctx.in_ssa then
      Spec_ssa.Ssa_check.check ~dom_of:(dom_of mgr.mctx.cache) mgr.mctx.prog
  with
  | Failure msg -> raise (Verify_error (pass_name, msg))
  | Verify_error _ as e -> raise e

(* One run's worth of bookkeeping for pass [name]: wall time, touched
   flag, and counters, merged into the manager's stats table. *)
let record_run mgr name ~dt ~touched ~counters =
  mgr.mtotal <- mgr.mtotal +. dt;
  let st =
    match Hashtbl.find_opt mgr.mstats name with
    | Some st -> st
    | None ->
      let st =
        { ps_pass = name; ps_runs = 0; ps_touched = 0; ps_time = 0.;
          ps_counters = [] }
      in
      Hashtbl.replace mgr.mstats name st;
      mgr.morder <- name :: mgr.morder;
      st
  in
  st.ps_runs <- st.ps_runs + 1;
  if touched then st.ps_touched <- st.ps_touched + 1;
  st.ps_time <- st.ps_time +. dt;
  st.ps_counters <- merge_counters st.ps_counters counters

let run_pass mgr name =
  let p = find_pass name in
  let t0 = Unix.gettimeofday () in
  let o = p.prun mgr.mctx in
  let dt = Unix.gettimeofday () -. t0 in
  record_run mgr p.pname ~dt ~touched:o.touched ~counters:o.counters;
  List.iter (invalidate mgr.mctx.cache) o.invalidates;
  if mgr.verify_each then verify mgr p.pname

let run_passes mgr names = List.iter (run_pass mgr) names

(* ------------------------------------------------------------------ *)
(* Fused per-function segments (parallel pipeline)                     *)
(* ------------------------------------------------------------------ *)

(* The pass-at-a-time schedule above is whole-program: every pass
   commits its SSA versions and temporaries into the shared symbol
   table before the next pass starts.  The fused segments below run the
   per-function portion of the pipeline — split-edges, build-ssa, and
   the SSAPRE-family clients down to out-of-ssa — as one task per
   function, on a *view* of the program: a record copy whose symbol
   table is cloned and whose statement counter is snapshotted, while
   the function bodies (owned exclusively by their task) are mutated in
   place.  Whole-program analyses (annotate, flags) stay sequential
   barriers between segments.

   Determinism: tasks are joined in submission order ([Parpool.map]),
   and all cross-task allocation — surviving temporaries, statement
   ids, refinement facts, dominator-cache entries, counters — is
   committed sequentially in [func_order] after the join.  The jobs=1
   path runs the identical task/commit machinery inline, so [--jobs n]
   output is byte-identical to [--jobs 1] by construction.

   This is also the dense-optimizer win on a single thread: SSA
   versions live and die inside a task's cloned table, so the shared
   symbol table only ever grows by surviving temporaries and the
   rename/occurrence structures stay small. *)

type seg_step = {
  sg_name : string;
  sg_dt : float;
  sg_touched : bool;
  sg_counters : (string * int) list;
}

type seg_result = {
  sr_fname : string;
  sr_view : Sir.prog;                      (* the task's program view *)
  sr_dom : Dom.t;                          (* valid for the final CFG *)
  sr_dom_ran : int;                        (* dominator computations *)
  sr_dom_hit : int;                        (* cache reuses *)
  sr_steps : seg_step list;                (* in schedule order *)
  sr_refine : (int * Loc.t option) list;   (* prepass only *)
  sr_ssapre : Ssapre.stats;                (* rounds only *)
  sr_verified : int;                       (* in-task verification runs *)
}

let count_phis_func (f : Sir.func) =
  let n = ref 0 in
  Vec.iter (fun (b : Sir.bb) -> n := !n + List.length b.Sir.phis) f.Sir.fblocks;
  !n

(* A task-private step recorder + in-task verification.  Verification
   failures surface as [Verify_error] through the pool's ordered join,
   so the reported pass is deterministic. *)
type stepper = {
  step : 'a. string -> (unit -> bool * (string * int) list * 'a) -> 'a;
}

let seg_env ~verify_each view f =
  let steps = ref [] in
  let verified = ref 0 in
  let step name thunk =
    let t0 = Unix.gettimeofday () in
    let touched, counters, x = thunk () in
    steps :=
      { sg_name = name; sg_dt = Unix.gettimeofday () -. t0;
        sg_touched = touched; sg_counters = counters }
      :: !steps;
    x
  in
  let check name ~ssa_dom =
    if verify_each then begin
      incr verified;
      try
        Cfg_utils.validate f;
        match ssa_dom with
        | Some dom -> Spec_ssa.Ssa_check.check_func view f dom
        | None -> ()
      with Failure msg -> raise (Verify_error (name, msg))
    end
  in
  (steps, verified, { step }, check)

(* Shared head of the prepass/round segments: split critical edges,
   then produce a dominator tree — reusing [dom_cached] when the task
   split nothing — and build HSSA. *)
let seg_split_and_ssa ~(sp : stepper)
    ~(check : string -> ssa_dom:Dom.t option -> unit) ~dom_cached view
    (f : Sir.func) =
  let nsplit =
    sp.step "split-edges" (fun () ->
        let n = Cfg_utils.split_critical_edges f in
        (n > 0, [ ("edges-split", n) ], n))
  in
  check "split-edges" ~ssa_dom:None;
  let bt, dom, dom_ran, dom_hit =
    sp.step "build-ssa" (fun () ->
        let dom, ran, hit =
          match dom_cached with
          | Some d when nsplit = 0 -> (d, 0, 1)
          | _ ->
            Sir.recompute_preds f;
            (Dom.compute f, 1, 0)
        in
        let bt = Spec_ssa.Build_ssa.build_func ~dom_of:(fun _ -> dom) view f in
        (true, [ ("phis", count_phis_func f) ], (bt, dom, ran, hit)))
  in
  check "build-ssa" ~ssa_dom:(Some dom);
  (bt, dom, dom_ran, dom_hit)

let prepass_task ~verify_each ~dom_cached (view : Sir.prog) (f : Sir.func) :
    seg_result =
  let steps, verified, sp, check = seg_env ~verify_each view f in
  let _bt, dom, dom_ran, dom_hit =
    seg_split_and_ssa ~sp ~check ~dom_cached view f
  in
  let decisions =
    sp.step "refine" (fun () ->
        let d = Spec_ssa.Refine.compute_func view.Sir.syms f in
        (* the "refined-sites" counter is global; recorded at commit *)
        (false, [], d))
  in
  check "refine" ~ssa_dom:(Some dom);
  sp.step "out-of-ssa" (fun () ->
      Spec_ssa.Out_of_ssa.run_func view f;
      (true, [], ()));
  check "out-of-ssa" ~ssa_dom:None;
  { sr_fname = f.Sir.fname; sr_view = view; sr_dom = dom; sr_dom_ran = dom_ran;
    sr_dom_hit = dom_hit; sr_steps = List.rev !steps; sr_refine = decisions;
    sr_ssapre = Ssapre.zero_stats; sr_verified = !verified }

let round_task ~verify_each ~dom_cached ~annot_info ~config (view : Sir.prog)
    (f : Sir.func) : seg_result =
  let steps, verified, sp, check = seg_env ~verify_each view f in
  let bt, dom, dom_ran, dom_hit =
    seg_split_and_ssa ~sp ~check ~dom_cached view f
  in
  let st =
    sp.step "ssapre" (fun () ->
        let work = Ssapre.new_work () in
        let st =
          Ssapre.run_func ~dom ~formals:bt.Spec_ssa.Build_ssa.formals_v1 ~work
            view annot_info config f
        in
        let touched =
          st.Ssapre.checks + st.Ssapre.reloads + st.Ssapre.saves
          + st.Ssapre.inserts > 0
        in
        (touched, ssapre_counters st work, st))
  in
  (* run_func leaves the function flat: CFG checks only from here on *)
  check "ssapre" ~ssa_dom:None;
  sp.step "out-of-ssa" (fun () ->
      Spec_ssa.Out_of_ssa.run_func view f;
      (true, [], ()));
  check "out-of-ssa" ~ssa_dom:None;
  { sr_fname = f.Sir.fname; sr_view = view; sr_dom = dom; sr_dom_ran = dom_ran;
    sr_dom_hit = dom_hit; sr_steps = List.rev !steps; sr_refine = [];
    sr_ssapre = st; sr_verified = !verified }

let post_task ~verify_each ~dom_cached ~annot_info ~config ~perturb ~strength
    ~strip ~deopt_vbase (view : Sir.prog) (f : Sir.func) : seg_result =
  let steps, verified, sp, check = seg_env ~verify_each view f in
  let dom, dom_ran, dom_hit =
    match dom_cached with
    | Some d -> (d, 0, 1)
    | None ->
      Sir.recompute_preds f;
      (Dom.compute f, 1, 0)
  in
  sp.step "store-promo" (fun () ->
      let kctx =
        Kills.create ~alias_threshold:config.Ssapre.alias_threshold
          ?adversary:perturb view annot_info config.Ssapre.mode
      in
      let st = Store_promo.run_func ~dom view annot_info kctx f in
      ( st.Store_promo.promoted > 0,
        [ ("promoted", st.Store_promo.promoted);
          ("loads-gone", st.Store_promo.loads_gone);
          ("stores-gone", st.Store_promo.stores_gone);
          ("checks", st.Store_promo.checks) ],
        () ));
  check "store-promo" ~ssa_dom:None;
  if strength then begin
    sp.step "strength" (fun () ->
        let st = Strength.run_func ~dom view f in
        ( st.Strength.reduced + st.Strength.lftr > 0,
          [ ("reduced", st.Strength.reduced); ("lftr", st.Strength.lftr) ],
          () ));
    check "strength" ~ssa_dom:None
  end;
  sp.step "cleanup" (fun () ->
      (* deopt descriptors transfer lowering-era register state, so the
         variables they name must survive dead-code elimination *)
      let pin =
        match deopt_vbase with
        | None -> None
        | Some vbase ->
          Some
            (fun v ->
              (Symtab.orig view.Sir.syms v).Symtab.vid < vbase)
      in
      let st = Cleanup.run_func ?pin view f in
      ( st.Cleanup.folded + st.Cleanup.propagated + st.Cleanup.removed > 0,
        [ ("folded", st.Cleanup.folded);
          ("propagated", st.Cleanup.propagated);
          ("removed", st.Cleanup.removed) ],
        () ));
  check "cleanup" ~ssa_dom:None;
  if strip then begin
    sp.step "strip-checks" (fun () ->
        let n = ref 0 in
        Vec.iter
          (fun (b : Sir.bb) ->
            b.Sir.stmts <-
              List.filter
                (fun (s : Sir.stmt) ->
                  let keep = s.Sir.mark <> Sir.Mchk in
                  if not keep then incr n;
                  keep)
                b.Sir.stmts)
          f.Sir.fblocks;
        (!n > 0, [ ("stripped", !n) ], ()));
    check "strip-checks" ~ssa_dom:None
  end;
  { sr_fname = f.Sir.fname; sr_view = view; sr_dom = dom; sr_dom_ran = dom_ran;
    sr_dom_hit = dom_hit; sr_steps = List.rev !steps; sr_refine = [];
    sr_ssapre = Ssapre.zero_stats; sr_verified = !verified }

(* Fan one task per function out to the domain pool.  Each task clones
   the symbol table and snapshots the statement counter itself (reads
   of the shared structures are safe: nothing writes them until the
   sequential commit).  Adversarial runs share one perturbation RNG, so
   they stay inline regardless of the pool size to keep the draw order
   deterministic. *)
let seg_map mgr (task : Sir.prog -> Sir.func -> seg_result) : seg_result list =
  let ctx = mgr.mctx in
  let prog = ctx.prog in
  let adversarial =
    ctx.perturb <> None || ctx.config.Ssapre.adversary <> None
  in
  let run name =
    let f = Hashtbl.find prog.Sir.funcs name in
    let view = { prog with Sir.syms = Symtab.clone prog.Sir.syms } in
    task view f
  in
  if adversarial then List.map run prog.Sir.func_order
  else Parpool.parmap run prog.Sir.func_order

(* Sequential, func_order commit of everything the tasks allocated:

   - Surviving new variables (temporaries; every SSA version has been
     de-versioned away inside the segment) are re-allocated into the
     real symbol table.  Their names are re-derived as the task-side
     prefix plus the *committed* id, preserving the sequential scheme
     where a temp is named after its own id.
   - New statements get fresh ids from the real counter in block order;
     [check_of] references into the segment are remapped along.
   - Refinement facts, dominator-cache entries, analysis counters and
     SSAPRE totals merge in the same order. *)
let seg_commit mgr ~vbase ~sbase (results : seg_result list) =
  let ctx = mgr.mctx in
  let prog = ctx.prog in
  let syms = prog.Sir.syms in
  List.iter
    (fun r ->
      let f = Hashtbl.find prog.Sir.funcs r.sr_fname in
      let view = r.sr_view in
      let vsyms = view.Sir.syms in
      let vcount = Symtab.count vsyms in
      (* surviving new variables *)
      let vmap =
        if vcount > vbase then Array.make (vcount - vbase) (-1) else [||]
      in
      for vid = vbase to vcount - 1 do
        let v = Symtab.var vsyms vid in
        if v.Symtab.vorig = v.Symtab.vid then begin
          let prefix =
            let n = v.Symtab.vname in
            let len = ref (String.length n) in
            while
              !len > 0
              && match n.[!len - 1] with '0' .. '9' -> true | _ -> false
            do
              decr len
            done;
            String.sub n 0 !len
          in
          let nv =
            Symtab.add syms
              ~name:(prefix ^ string_of_int (Symtab.count syms))
              ~ty:v.Symtab.vty ~storage:v.Symtab.vstorage ~func:v.Symtab.vfunc
              ~size:v.Symtab.vsize ~elt:v.Symtab.velt
              ~is_array:v.Symtab.varray ()
          in
          vmap.(vid - vbase) <- nv.Symtab.vid
        end
      done;
      let mv v =
        if v >= vbase then begin
          let nv = vmap.(v - vbase) in
          assert (nv >= 0);     (* versions never survive a segment *)
          nv
        end
        else v
      in
      (* new statement ids, allocated in block/statement order *)
      let nstmts = view.Sir.next_stmt - sbase in
      let smap = if nstmts > 0 then Array.make nstmts (-1) else [||] in
      if nstmts > 0 then
        Vec.iter
          (fun (b : Sir.bb) ->
            List.iter
              (fun (s : Sir.stmt) ->
                if s.Sir.sid >= sbase then begin
                  smap.(s.Sir.sid - sbase) <- prog.Sir.next_stmt;
                  prog.Sir.next_stmt <- prog.Sir.next_stmt + 1
                end)
              b.Sir.stmts)
          f.Sir.fblocks;
      let remap_vars = Array.length vmap > 0 in
      if remap_vars || nstmts > 0 then
        Vec.iter
          (fun (b : Sir.bb) ->
            b.Sir.stmts <-
              List.map
                (fun (s : Sir.stmt) ->
                  let kind =
                    if not remap_vars then s.Sir.kind
                    else
                      let k =
                        Sir.map_stmt_exprs (Sir.map_expr_uses mv) s.Sir.kind
                      in
                      match k with
                      | Sir.Stid (v, e) when v >= vbase ->
                        Sir.Stid (mv v, e)
                      | Sir.Call ({ Sir.ret = Some v; _ } as c)
                        when v >= vbase ->
                        Sir.Call { c with Sir.ret = Some (mv v) }
                      | k -> k
                  in
                  let sid =
                    if s.Sir.sid >= sbase then smap.(s.Sir.sid - sbase)
                    else s.Sir.sid
                  in
                  let check_of =
                    if s.Sir.check_of >= sbase then
                      smap.(s.Sir.check_of - sbase)
                    else s.Sir.check_of
                  in
                  if
                    sid = s.Sir.sid && check_of = s.Sir.check_of
                    && kind == s.Sir.kind
                  then s
                  else { s with Sir.sid; Sir.kind; Sir.check_of })
                b.Sir.stmts;
            if remap_vars then
              b.Sir.term <- Sir.map_term_exprs (Sir.map_expr_uses mv) b.Sir.term)
          f.Sir.fblocks;
      if remap_vars then f.Sir.flocals <- List.map mv f.Sir.flocals;
      (* analyses, facts, totals *)
      Hashtbl.replace ctx.cache.doms r.sr_fname r.sr_dom;
      let c = ctx.cache.counters in
      c.dom_runs <- c.dom_runs + r.sr_dom_ran;
      c.dom_hits <- c.dom_hits + r.sr_dom_hit;
      Spec_ssa.Refine.merge_into ctx.refinements r.sr_refine;
      ctx.ssapre_total <- Ssapre.add_stats ctx.ssapre_total r.sr_ssapre;
      mgr.mverified <- mgr.mverified + r.sr_verified)
    results

(* Record each sub-pass once per segment invocation: times are summed
   across tasks (CPU seconds — under --jobs n the wall time is lower),
   counters merge in any order (they are sums), touched is an OR. *)
let seg_record mgr step_names (results : seg_result list) =
  List.iter
    (fun name ->
      let dt = ref 0. and touched = ref false and counters = ref [] in
      List.iter
        (fun r ->
          List.iter
            (fun s ->
              if s.sg_name = name then begin
                dt := !dt +. s.sg_dt;
                if s.sg_touched then touched := true;
                counters := merge_counters !counters s.sg_counters
              end)
            r.sr_steps)
        results;
      let counters =
        if name = "refine" then
          [ ("refined-sites", Hashtbl.length mgr.mctx.refinements) ]
        else !counters
      in
      record_run mgr name ~dt:!dt ~touched:!touched ~counters)
    step_names

let seg_run mgr step_names task : seg_result list =
  let ctx = mgr.mctx in
  let vbase = Symtab.count ctx.prog.Sir.syms in
  let sbase = ctx.prog.Sir.next_stmt in
  let results = seg_map mgr task in
  seg_commit mgr ~vbase ~sbase results;
  seg_record mgr step_names results;
  (* statement-level chi/mu lists are wiped inside the segment *)
  invalidate ctx.cache Chi_mu;
  ctx.in_ssa <- false;
  results

(** The refinement prepass as one fused parallel segment: an [annotate]
    barrier, then per-function split-edges / build-ssa / refine /
    out-of-ssa tasks.  Equivalent to scheduling
    [Pipeline.prepass_schedule] pass-at-a-time, except that SSA versions
    stay task-local. *)
let fused_prepass mgr =
  let ctx = mgr.mctx in
  run_pass mgr "annotate";
  let verify_each = mgr.verify_each in
  ignore
    (seg_run mgr [ "split-edges"; "build-ssa"; "refine"; "out-of-ssa" ]
       (fun view f ->
         prepass_task ~verify_each
           ~dom_cached:(Hashtbl.find_opt ctx.cache.doms f.Sir.fname) view f)
     : seg_result list)

(** One promotion round as a fused parallel segment: [annotate] and
    [flags] barriers, then per-function split-edges / build-ssa / ssapre
    / out-of-ssa tasks. *)
let fused_round mgr =
  let ctx = mgr.mctx in
  run_pass mgr "annotate";
  run_pass mgr "flags";
  let annot_info = annot ~refinements:ctx.refinements ctx.cache in
  let verify_each = mgr.verify_each and config = ctx.config in
  ignore
    (seg_run mgr [ "split-edges"; "build-ssa"; "ssapre"; "out-of-ssa" ]
       (fun view f ->
         round_task ~verify_each
           ~dom_cached:(Hashtbl.find_opt ctx.cache.doms f.Sir.fname)
           ~annot_info ~config view f)
     : seg_result list)

(** The post-rounds tail as a fused parallel segment: an [annotate]
    barrier (the store promoter's annotation), then per-function
    store-promo / strength / cleanup / strip-checks tasks.

    With [deopt_vbase] set, cleanup pins lowering-era variables (their
    values feed deoptimization descriptors).  Returns, per function,
    whether a sub-pass transformed it in a way that breaks the
    deopt state mapping: store promotion defers memory effects and
    linear-function test replacement retires induction variables, so
    any function they touched must not keep descriptors. *)
let fused_post mgr ?deopt_vbase ~strength ~strip () : (string * bool) list =
  let ctx = mgr.mctx in
  (* barrier annotation, timed under store-promo as in the sequential
     schedule (where the pass's own run pays for the cache miss) *)
  let t0 = Unix.gettimeofday () in
  let annot_info = annot ~refinements:ctx.refinements ctx.cache in
  let annot_dt = Unix.gettimeofday () -. t0 in
  let verify_each = mgr.verify_each in
  let config = ctx.config and perturb = ctx.perturb in
  let names =
    [ "store-promo" ] @ (if strength then [ "strength" ] else [])
    @ [ "cleanup" ] @ (if strip then [ "strip-checks" ] else [])
  in
  let results =
    seg_run mgr names (fun view f ->
        post_task ~verify_each
          ~dom_cached:(Hashtbl.find_opt ctx.cache.doms f.Sir.fname)
          ~annot_info ~config ~perturb ~strength ~strip ~deopt_vbase view f)
  in
  (match Hashtbl.find_opt mgr.mstats "store-promo" with
   | Some st -> st.ps_time <- st.ps_time +. annot_dt
   | None -> ());
  mgr.mtotal <- mgr.mtotal +. annot_dt;
  List.map
    (fun r ->
      let counter step key =
        List.fold_left
          (fun acc s ->
            if s.sg_name = step then
              acc + (try List.assoc key s.sg_counters with Not_found -> 0)
            else acc)
          0 r.sr_steps
      in
      ( r.sr_fname,
        counter "store-promo" "promoted" > 0 || counter "strength" "lftr" > 0
      ))
    results

let report mgr =
  { rp_passes =
      List.rev_map (fun n -> Hashtbl.find mgr.mstats n) mgr.morder;
    rp_counters = mgr.mctx.cache.counters;
    rp_verified = mgr.mverified;
    rp_total_time = mgr.mtotal }

(* ------------------------------------------------------------------ *)
(* Report rendering                                                    *)
(* ------------------------------------------------------------------ *)

let total_runs r =
  let rec go acc = function
    | [] -> acc
    | st :: rest -> go (acc + st.ps_runs) rest
  in
  go 0 r.rp_passes

let counters_to_string c =
  Printf.sprintf
    "analyses: steensgaard=%d modref=%d annotate=%d dom=%d safety=%d \
     (hits: points-to=%d annotate=%d dom=%d safety=%d)"
    c.steensgaard_runs c.modref_runs c.annot_runs c.dom_runs c.safety_runs
    c.points_to_hits c.annot_hits c.dom_hits c.safety_hits

let report_to_string r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-12s %5s %8s  %s\n" "pass" "runs" "ms" "stats");
  List.iter
    (fun st ->
      Buffer.add_string buf
        (Printf.sprintf "%-12s %5d %8.2f  %s\n" st.ps_pass st.ps_runs
           (st.ps_time *. 1000.)
           (String.concat " "
              (List.map
                 (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                 st.ps_counters))))
    r.rp_passes;
  Buffer.add_string buf
    (Printf.sprintf "%-12s %5s %8.2f\n" "total" "" (r.rp_total_time *. 1000.));
  Buffer.add_string buf (counters_to_string r.rp_counters);
  Buffer.add_char buf '\n';
  if r.rp_verified > 0 then
    Buffer.add_string buf
      (Printf.sprintf "inter-pass verification: %d runs, all clean\n"
         r.rp_verified);
  Buffer.contents buf

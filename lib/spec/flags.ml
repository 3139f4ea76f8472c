(** Speculative SSA form: assignment of speculation flags to χ/μ operands
    (§3.2.1 and §3.2.2 of the paper).

    A flagged χ (written χs) is an update that is *highly likely* to happen
    at runtime and must not be ignored; an unflagged χ is a *speculative
    weak update* that speculative optimizations may ignore at the price of
    a runtime check.  Flags come from either the alias profile or the
    paper's three heuristic rules:

    1. two indirect references with an identical address expression are
       highly likely to access the same location;
    2. two direct references of the same variable are highly likely to
       hold the same value;
    3. call side effects are always assumed highly likely (all call χs
       become χs; μ lists stay unflagged).

    Virtual-variable operands always keep their flag set: they carry the
    non-speculative (conservative) value chain that the baseline analysis
    uses. *)

open Spec_ir
open Spec_prof

type mode =
  | Nonspec               (** baseline: every may-alias kills *)
  | Profile_spec of Profile.t
  | Heuristic_spec

let mode_name = function
  | Nonspec -> "nonspec"
  | Profile_spec _ -> "profile"
  | Heuristic_spec -> "heuristic"

(** LOC of a memory-resident variable. *)
let var_loc syms vid = Loc.Lvar (Symtab.orig syms vid).Symtab.vid

let assign_stmt ?(threshold = 0.) prog mode (s : Sir.stmt) =
  let syms = prog.Sir.syms in
  let is_vv v = Symtab.is_virtual syms v in
  let flag_all value =
    List.iter
      (fun (c : Sir.chi) ->
        c.Sir.chi_spec <- value || is_vv c.Sir.chi_var)
      s.Sir.chis;
    List.iter
      (fun (m : Sir.mu) -> m.Sir.mu_spec <- value || is_vv m.Sir.mu_var)
      s.Sir.mus
  in
  match mode with
  | Nonspec -> flag_all true
  | Heuristic_spec ->
    (match s.Sir.kind with
     | Sir.Call _ ->
       (* rule 3: call side effects are highly likely *)
       List.iter (fun (c : Sir.chi) -> c.Sir.chi_spec <- true) s.Sir.chis;
       List.iter
         (fun (m : Sir.mu) -> m.Sir.mu_spec <- is_vv m.Sir.mu_var)
         s.Sir.mus
     | Sir.Istr _ | Sir.Stid _ | Sir.Snop ->
       (* rules 1 and 2: non-call updates between identical references are
          speculatively ignorable, so real-variable χ/μ stay unflagged *)
       flag_all false)
  | Profile_spec prof ->
    let flag_by_locs site =
      let locs = Profile.locs_at prof site in
      if Loc.Set.is_empty locs then
        (* never executed during profiling: no speculation evidence *)
        flag_all true
      else begin
        (* the degree-of-likeliness knob: a relation observed in at most
           [threshold] of the site's executions stays speculative *)
        let likely v = Profile.loc_fraction prof site (var_loc syms v) > threshold in
        List.iter
          (fun (c : Sir.chi) ->
            c.Sir.chi_spec <- is_vv c.Sir.chi_var || likely c.Sir.chi_var)
          s.Sir.chis;
        List.iter
          (fun (m : Sir.mu) ->
            m.Sir.mu_spec <- is_vv m.Sir.mu_var || likely m.Sir.mu_var)
          s.Sir.mus
      end
    in
    (match s.Sir.kind with
     | Sir.Istr (_, _, _, site) -> flag_by_locs site
     | Sir.Call { csite; _ } ->
       let mods = Profile.call_mod_locs prof csite in
       let refs = Profile.call_ref_locs prof csite in
       List.iter
         (fun (c : Sir.chi) ->
           c.Sir.chi_spec <-
             is_vv c.Sir.chi_var
             || Loc.Set.mem (var_loc syms c.Sir.chi_var) mods)
         s.Sir.chis;
       List.iter
         (fun (m : Sir.mu) ->
           m.Sir.mu_spec <-
             is_vv m.Sir.mu_var
             || Loc.Set.mem (var_loc syms m.Sir.mu_var) refs)
         s.Sir.mus
     | Sir.Stid _ | Sir.Snop ->
       (* μ lists on load-carrying statements: flag by each iload's profile;
          conservatively flag by union of the statement's iload sites *)
       let sites = ref [] in
       List.iter
         (fun e ->
           Sir.iter_subexprs
             (function
               | Sir.Ilod (_, _, st) -> sites := st :: !sites
               | _ -> ())
             e)
         (Sir.stmt_exprs s.Sir.kind);
       let locs =
         List.fold_left
           (fun acc st -> Loc.Set.union acc (Profile.locs_at prof st))
           Loc.Set.empty !sites
       in
       if !sites = [] then flag_all true
       else
         List.iter
           (fun (m : Sir.mu) ->
             m.Sir.mu_spec <-
               is_vv m.Sir.mu_var
               || Loc.Set.mem (var_loc syms m.Sir.mu_var) locs)
           s.Sir.mus)

(* ------------------------------------------------------------------ *)
(* Adversarial perturbation (stress harness)                           *)
(* ------------------------------------------------------------------ *)

type perturbation = {
  prng : Spec_stress.Srng.t;
  padv : Spec_stress.Faults.adversary;
  pseed : int;
  ppath : string list;
  mutable flipped : int;
}

let perturbation ~seed ~scope adv =
  match (adv : Spec_stress.Faults.adversary) with
  | Spec_stress.Faults.Adv_none -> None
  | _ ->
    let ppath = "adversary" :: scope in
    Some
      { prng = Spec_stress.Srng.of_path seed ppath; padv = adv; pseed = seed;
        ppath; flipped = 0 }

let flipped p = p.flipped

(* Attack the flag assignment after the honest policy ran: clear (always
   under [Adv_invert], probabilistically under [Adv_drop]) every
   real-variable flag the policy set, so the compiler speculates exactly
   where the profile/heuristic said a real alias is likely — the
   recovery path must then fire at high rates.  Virtual variables keep
   their flags set: they carry the conservative value chain the
   framework's correctness argument relies on, so perturbing them would
   not model a wrong profile but a broken compiler. *)
let perturb_stmt p syms (s : Sir.stmt) =
  let is_vv = Symtab.is_virtual syms in
  let attack current =
    match p.padv with
    | Spec_stress.Faults.Adv_none -> current
    | Spec_stress.Faults.Adv_invert ->
      if current then p.flipped <- p.flipped + 1;
      false
    | Spec_stress.Faults.Adv_drop ppm ->
      if current && Spec_stress.Srng.chance p.prng ~ppm then begin
        p.flipped <- p.flipped + 1;
        false
      end
      else current
  in
  List.iter
    (fun (c : Sir.chi) ->
      if not (is_vv c.Sir.chi_var) then c.Sir.chi_spec <- attack c.Sir.chi_spec)
    s.Sir.chis;
  List.iter
    (fun (m : Sir.mu) ->
      if not (is_vv m.Sir.mu_var) then m.Sir.mu_spec <- attack m.Sir.mu_spec)
    s.Sir.mus

(** Assign speculation flags program-wide.  Must run after χ/μ annotation
    and before (or after) SSA renaming — flags live on the operand records
    that renaming preserves.  [perturb] adversarially corrupts the result
    for the speculative modes (stress harness): the framework must stay
    correct — only slower — under an arbitrarily wrong flag assignment,
    because every ignored weak update is guarded by a check load. *)
(* The χ/μ lists live on the statements; the annotation result is taken
   only so that callers must have run the annotation first. *)
let assign ?threshold ?perturb prog (_ : Spec_alias.Annotate.info) mode =
  let perturb =
    (* the baseline (Nonspec) assignment is not a speculation policy;
       adversarial profiles only make sense against speculative modes *)
    match mode with Nonspec -> None | _ -> perturb
  in
  Sir.iter_funcs
    (fun f ->
      Vec.iter
        (fun (b : Sir.bb) ->
          List.iter
            (fun s ->
              assign_stmt ?threshold prog mode s;
              match perturb with
              | Some p -> perturb_stmt p prog.Sir.syms s
              | None -> ())
            b.Sir.stmts)
        f.Sir.fblocks)
    prog

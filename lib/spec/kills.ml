(** Kill classification for candidate expressions under speculation.

    The SSAPRE Rename step asks, for every statement crossed while an
    expression's value is on the rename stack: does this statement kill
    the value strongly (a real redefinition), weakly (a may-alias update
    the chosen speculation policy says is unlikely — the paper's
    speculative weak update), or not at all?

    The verdicts are exactly the χ/μ speculation-flag semantics of
    {!Flags}, expressed as a per-(statement, expression) query so that
    heap-object aliasing (which the paper's footnote 1 excludes from χ/μ
    lists because heap objects have no variable names) is covered by the
    same policy via profiled LOC sets. *)

open Spec_ir
open Spec_prof

type verdict = Knone | Kweak | Kstrong

(** What kind of memory value a candidate expression denotes. *)
type target =
  | Tpure                      (** no memory access: killed only by leaf redefs *)
  | Tvar of int                (** direct load of memory-resident variable *)
  | Tsite of int               (** indirect load, by site id *)

let worst a b =
  match a, b with
  | Kstrong, _ | _, Kstrong -> Kstrong
  | Kweak, _ | _, Kweak -> Kweak
  | Knone, Knone -> Knone

type ctx = {
  prog : Sir.prog;
  annot : Spec_alias.Annotate.info;
  mode : Flags.mode;
  site_addr : (int, Sir.expr) Hashtbl.t;  (* istore/iload site -> address *)
  addr_key : (int, int) Hashtbl.t;        (* its key's id, built when read *)
  key_ids : (string, int) Hashtbl.t;      (* address key -> id *)
  alias_threshold : float;
      (** degree-of-likeliness knob: an alias relation observed in at most
          this fraction of a site's profiled executions is still treated
          as unlikely (speculative weak update).  0.0 = the paper's
          default ("exists during profiling" means likely). *)
  adversary : Flags.perturbation option;
      (** stress harness: corrupt the mode-derived heap-aliasing verdicts
          (flag-derived verdicts are already corrupted by
          {!Flags.assign}'s perturbation, so they are not attacked twice) *)
}

let create ?(alias_threshold = 0.) ?adversary prog annot mode =
  let adversary =
    match mode with Flags.Nonspec -> None | _ -> adversary
  in
  { prog; annot; mode; site_addr = Hashtbl.create 16;
    addr_key = Hashtbl.create 16; key_ids = Hashtbl.create 16;
    alias_threshold; adversary }

(* Adversarial corruption of a may-alias policy verdict: likely aliases
   are downgraded to unlikely (always under [Adv_invert], with the given
   probability under [Adv_drop]), so speculation crosses exactly the
   updates the profile says do alias at runtime.  [Knone] (no alias
   relation at all) stays — inventing relations models a broken
   analysis, not a wrong profile.  Statically disambiguated
   definitely-aliasing pairs are attacked like profiled ones: forcing
   speculation across a known alias is the worst case the recovery path
   must absorb.  Every resulting [Kweak] is still guarded by a check
   load, so outputs are preserved and only recovery cost grows.

   The drop coin of a (statement, load site) pair is a pure function of
   the plan's seed and scope, the statement id and the site: Φ-insertion
   and Rename may ask about one pair any number of times, in any order,
   and always get the same verdict. *)
let drop_coin (p : Flags.perturbation) (s : Sir.stmt) site ~ppm =
  Spec_stress.Srng.chance
    (Spec_stress.Srng.of_path p.Flags.pseed
       (p.Flags.ppath @ [ "kill"; string_of_int s.Sir.sid; string_of_int site ]))
    ~ppm

let attack ctx (s : Sir.stmt) site (v : verdict) : verdict =
  match ctx.adversary with
  | None -> v
  | Some p ->
    (match v, p.Flags.padv with
     | Kstrong, Spec_stress.Faults.Adv_invert ->
       p.Flags.flipped <- p.Flags.flipped + 1;
       Kweak
     | Kstrong, Spec_stress.Faults.Adv_drop ppm when drop_coin p s site ~ppm ->
       p.Flags.flipped <- p.Flags.flipped + 1;
       Kweak
     | v, _ -> v)

(* Heuristic rule 1 ("identical address expression") compares the
   deversioned text of two sites' addresses, interned as ints.  Only that
   policy reads the keys, so a site's key is built the first time it is
   asked for. *)
let register_site_addr ctx site (a : Sir.expr) =
  if not (Hashtbl.mem ctx.site_addr site) then
    Hashtbl.replace ctx.site_addr site a

let site_addr_key ctx site =
  match Hashtbl.find_opt ctx.addr_key site with
  | Some _ as k -> k
  | None -> (
      match Hashtbl.find_opt ctx.site_addr site with
      | None -> None
      | Some a ->
        let text = Pp.expr_key ctx.prog.Sir.syms a in
        let k =
          match Hashtbl.find_opt ctx.key_ids text with
          | Some k -> k
          | None ->
            let k = Hashtbl.length ctx.key_ids in
            Hashtbl.replace ctx.key_ids text k;
            k
        in
        Hashtbl.replace ctx.addr_key site k;
        Some k)

let chi_on ctx (s : Sir.stmt) v =
  let syms = ctx.prog.Sir.syms in
  let ov = (Symtab.orig syms v).Symtab.vid in
  List.find_opt (fun (c : Sir.chi) -> c.Sir.chi_var = ov) s.Sir.chis

let chi_on_vv_of_site ctx (s : Sir.stmt) site =
  match Spec_alias.Annotate.site_virtual ctx.annot site with
  | None -> None
  | Some vv -> chi_on ctx s vv

(** Classify the memory effect of statement [s] on a candidate whose
    target is [tgt].  Leaf (address operand) redefinitions are handled
    separately by the caller. *)
let classify ctx (tgt : target) (s : Sir.stmt) : verdict =
  let syms = ctx.prog.Sir.syms in
  match tgt with
  | Tpure -> Knone
  | Tvar g -> (
      (* value of variable g: a direct store is a strong kill (caller sees
         it as a leaf redefinition as well); a χ on g kills per its flag *)
      match s.Sir.kind with
      | Sir.Stid (v, _) when (Symtab.orig syms v).Symtab.vid = g -> Kstrong
      | _ ->
        (match chi_on ctx s g with
         | Some c -> if c.Sir.chi_spec then Kstrong else Kweak
         | None -> Knone))
  | Tsite l -> (
      let same_class_chi = chi_on_vv_of_site ctx s l in
      (* flow-sensitive refinement: when both sides have definite targets,
         the static analysis already disambiguates them, in every mode *)
      let definite_verdict =
        match s.Sir.kind with
        | Sir.Istr (_, _, _, store_site) -> (
            match
              Spec_alias.Annotate.site_definite ctx.annot store_site,
              Spec_alias.Annotate.site_definite ctx.annot l
            with
            | Some a, Some b ->
              Some (if Loc.equal a b then Kstrong else Knone)
            | _ -> None)
        | _ -> None
      in
      match definite_verdict with
      | Some v -> attack ctx s l v
      | None ->
      attack ctx s l @@
      match ctx.mode with
      | Flags.Nonspec -> (
          match same_class_chi with Some _ -> Kstrong | None -> Knone)
      | Flags.Heuristic_spec -> (
          match s.Sir.kind with
          | Sir.Call _ -> (
              (* rule 3: calls that may touch the class kill strongly *)
              match same_class_chi with Some _ -> Kstrong | None -> Knone)
          | Sir.Istr (_, _, _, store_site) -> (
              match same_class_chi with
              | None -> Knone
              | Some _ ->
                (* rule 1: identical address syntax = same location *)
                (match site_addr_key ctx store_site, site_addr_key ctx l with
                 | Some ks, Some kl when ks = kl -> Kstrong
                 | _ -> Kweak))
          | Sir.Stid _ | Sir.Snop -> (
              match same_class_chi with Some _ -> Kweak | None -> Knone))
      | Flags.Profile_spec prof -> (
          let load_locs = Profile.locs_at prof l in
          if Loc.Set.is_empty load_locs then
            (* the load never executed while profiling: no evidence *)
            match same_class_chi with Some _ -> Kstrong | None -> Knone
          else
            match s.Sir.kind with
            | Sir.Istr (_, _, _, store_site) -> (
                match same_class_chi with
                | None -> Knone
                | Some _ ->
                  let store_locs = Profile.locs_at prof store_site in
                  if Loc.Set.is_empty store_locs then Kstrong
                  else if
                    Profile.overlap_fraction prof store_site load_locs
                    > ctx.alias_threshold
                  then Kstrong
                  else Kweak)
            | Sir.Stid (v, _) when Symtab.is_mem syms v -> (
                let g = (Symtab.orig syms v).Symtab.vid in
                if Loc.Set.mem (Loc.Lvar g) load_locs then Kstrong
                else
                  match same_class_chi with
                  | Some _ -> Kweak
                  | None -> Knone)
            | Sir.Call { csite; _ } -> (
                match same_class_chi with
                | None -> Knone
                | Some _ ->
                  let mods = Profile.call_mod_locs prof csite in
                  if not (Loc.Set.is_empty (Loc.Set.inter load_locs mods))
                  then Kstrong
                  else Kweak)
            | Sir.Stid _ | Sir.Snop -> Knone))

(** Classify the effect of [s] on an address/operand leaf variable [v]
    (an SSA version): strong on direct redefinition or flagged χ, weak on
    unflagged χ. *)
let classify_leaf ctx (v_orig : int) (s : Sir.stmt) : verdict =
  let syms = ctx.prog.Sir.syms in
  let direct =
    match Sir.stmt_def s.Sir.kind with
    | Some d -> (Symtab.orig syms d).Symtab.vid = v_orig
    | None -> false
  in
  if direct then Kstrong
  else
    match chi_on ctx s v_orig with
    | Some c -> if c.Sir.chi_spec then Kstrong else Kweak
    | None -> Knone

(* ------------------------------------------------------------------ *)
(* Kill keys                                                           *)
(* ------------------------------------------------------------------ *)

(* A sparse Rename files every candidate under the keys below and asks a
   statement only about the live candidates filed under the statement's
   strong keys.  The two key lists of a statement mirror [classify]'s
   case split:

   - every candidate the statement can kill strongly (before the
     adversary acts) is filed under one of its strong keys;
   - every live candidate filed under one of its weak keys gets a weak
     or strong verdict from it, never [Knone].

   Classes are split by whether the load has a definite target, because
   a store with a definite target disambiguates exactly those loads. *)
type key =
  | Kvar of int
  | Kclass of int * bool
  | Kempty of int * bool
  | Krule1 of int * bool * int
  | Kloc of Loc.t
  | Kdef of Loc.t

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal (a : key) b =
    match a, b with
    | Kvar x, Kvar y -> x = y
    | Kclass (x, d), Kclass (y, e) | Kempty (x, d), Kempty (y, e) ->
      x = y && d = e
    | Krule1 (x, d, k), Krule1 (y, e, l) -> x = y && d = e && k = l
    | Kloc a, Kloc b | Kdef a, Kdef b -> Loc.equal a b
    | (Kvar _ | Kclass _ | Kempty _ | Krule1 _ | Kloc _ | Kdef _), _ -> false

  let loc_code = function Loc.Lvar x -> 2 * x | Loc.Lheap x -> (2 * x) + 1

  let hash = function
    | Kvar v -> 8 * v
    | Kclass (v, d) -> (16 * v) + if d then 9 else 1
    | Kempty (v, d) -> (16 * v) + if d then 10 else 2
    | Krule1 (v, d, k) -> (16 * ((31 * v) + k)) + if d then 11 else 3
    | Kloc l -> (8 * loc_code l) + 4
    | Kdef l -> (8 * loc_code l) + 5
end)

let target_keys ctx (tgt : target) =
  match tgt with
  | Tpure | Tvar _ -> ([], [])
  | Tsite l ->
    let syms = ctx.prog.Sir.syms in
    let dl = Spec_alias.Annotate.site_definite ctx.annot l in
    let d = dl <> None in
    let strong = match dl with Some b -> [ Kdef b ] | None -> [] in
    let locs =
      match ctx.mode with
      | Flags.Profile_spec prof -> Profile.locs_at prof l
      | Flags.Nonspec | Flags.Heuristic_spec -> Loc.Set.empty
    in
    let strong =
      Loc.Set.fold (fun x acc -> Kloc x :: acc) locs strong
    in
    match Spec_alias.Annotate.site_virtual ctx.annot l with
    | None -> (strong, [])
    | Some vv ->
      let c = (Symtab.orig syms vv).Symtab.vid in
      let strong =
        match ctx.mode with
        | Flags.Nonspec -> Kclass (c, d) :: strong
        | Flags.Heuristic_spec -> (
            Kclass (c, d)
            :: (match site_addr_key ctx l with
                | Some k -> Krule1 (c, d, k) :: strong
                | None -> strong))
        | Flags.Profile_spec _ ->
          if Loc.Set.is_empty locs then Kempty (c, d) :: strong
          else Kclass (c, d) :: strong
      in
      (strong, [ Kclass (c, d) ])

let stmt_keys ctx (s : Sir.stmt) =
  let syms = ctx.prog.Sir.syms in
  let strong = ref [] and weak = ref [] in
  let add r k = r := k :: !r in
  let def =
    match Sir.stmt_def s.Sir.kind with
    | Some v -> (Symtab.orig syms v).Symtab.vid
    | None -> -1
  in
  if def >= 0 then add strong (Kvar def);
  let sdef =
    match s.Sir.kind with
    | Sir.Istr (_, _, _, site) -> Spec_alias.Annotate.site_definite ctx.annot site
    | _ -> None
  in
  (match sdef with Some a -> add strong (Kdef a) | None -> ());
  if s.Sir.chis <> [] then begin
    (* a store with a definite target decides definite-target loads by
       location alone *)
    let subs = match sdef with Some _ -> [ false ] | None -> [ false; true ] in
    let each r mk = List.iter (fun d -> add r (mk d)) subs in
    let locs_added = ref false in
    let add_locs locs =
      if not !locs_added then begin
        locs_added := true;
        Loc.Set.iter (fun x -> add strong (Kloc x)) locs
      end
    in
    let seen = ref [] in
    List.iter
      (fun (c : Sir.chi) ->
        let v = c.Sir.chi_var in
        if not (List.mem v !seen) then begin
          seen := v :: !seen;
          (* as an operand variable *)
          if v <> def then add (if c.Sir.chi_spec then strong else weak) (Kvar v);
          (* as the alias class of a load *)
          match ctx.mode, s.Sir.kind with
          | Flags.Nonspec, _ -> each strong (fun d -> Kclass (v, d))
          | Flags.Heuristic_spec, Sir.Call _ -> each strong (fun d -> Kclass (v, d))
          | Flags.Heuristic_spec, Sir.Istr (_, _, _, site) ->
            (match site_addr_key ctx site with
             | Some k -> each strong (fun d -> Krule1 (v, d, k))
             | None -> ());
            each weak (fun d -> Kclass (v, d))
          | Flags.Heuristic_spec, (Sir.Stid _ | Sir.Snop) ->
            each weak (fun d -> Kclass (v, d))
          | Flags.Profile_spec prof, kind -> (
              each strong (fun d -> Kempty (v, d));
              match kind with
              | Sir.Istr (_, _, _, site) ->
                let store_locs = Profile.locs_at prof site in
                if Loc.Set.is_empty store_locs || ctx.alias_threshold < 0. then
                  each strong (fun d -> Kclass (v, d))
                else add_locs store_locs;
                each weak (fun d -> Kclass (v, d))
              | Sir.Call { csite; _ } ->
                add_locs (Profile.call_mod_locs prof csite);
                each weak (fun d -> Kclass (v, d))
              | Sir.Stid (x, _) when Symtab.is_mem syms x ->
                each weak (fun d -> Kclass (v, d))
              | Sir.Stid _ | Sir.Snop -> ())
        end)
      s.Sir.chis
  end;
  (match ctx.mode, s.Sir.kind with
   | Flags.Profile_spec _, Sir.Stid (x, _) when Symtab.is_mem syms x ->
     add strong (Kloc (Loc.Lvar (Symtab.orig syms x).Symtab.vid))
   | _ -> ());
  (!strong, !weak)

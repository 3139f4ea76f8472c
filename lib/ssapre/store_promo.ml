(** Speculative register promotion of stores (the store half of register
    promotion: Lo et al.'s SPRE of loads *and* stores, and the authors'
    own ALAT-based speculative register promotion, CGO 2003).

    A location [A] that a loop repeatedly stores through a loop-invariant
    address is kept in a register for the whole loop:

      preheader:  t = load A          (ld.a — arms the ALAT)
      loop body:  loads of A  -> t
                  stores of A -> t = v
                  after every may-aliasing store *q:
                              t = load A  (ld.c — reloads iff *q hit A)
      every exit: store A = t

    Soundness conditions, checked per candidate group:
    - the address expression is loop-invariant and every same-syntax
      reference belongs to the group;
    - at least one group store executes on every iteration (so [A] is a
      valid, written location whenever the loop runs — the preheader load
      and exit stores introduce no new faults);
    - no other may-aliasing *load* exists in the loop (a load of [A]
      through a different pointer would read the stale memory cell; the
      ALAT cannot recover that, so such groups are rejected outright);
    - other may-aliasing *stores* are allowed when the speculation policy
      classifies them as unlikely: each is followed by a check reload of
      [t], which the ALAT turns into a no-op unless the store really hit
      [A];
    - no call in the loop may touch the location's alias class;
    - every exit block is reachable only from inside the loop.

    Runs on de-versioned SIR after the PRE rounds. *)

open Spec_ir
open Spec_cfg
open Spec_spec

type stats = {
  mutable promoted : int;      (* groups promoted *)
  mutable loads_gone : int;    (* static loads replaced by t *)
  mutable stores_gone : int;   (* static stores replaced by t = v *)
  mutable checks : int;        (* check reloads inserted *)
}

type group = {
  g_key : string;
  g_ty : Types.ty;
  g_addr : Sir.expr;
  g_site : int;                (* representative site, kept for profiling *)
  mutable g_loads : int;
  mutable g_stores : int;
  mutable g_has_every_iter_store : bool;
}

let expr_is_invariant prog defs e =
  let ok = ref true in
  Sir.iter_subexprs
    (function
      | Sir.Ilod _ -> ok := false
      | Sir.Lod v when Symtab.is_mem prog.Sir.syms v -> ok := false
      | Sir.Lod v ->
        if Hashtbl.mem defs (Symtab.orig prog.Sir.syms v).Symtab.vid then
          ok := false
      | _ -> ())
    e;
  !ok

let addr_key prog e = Pp.expr_key prog.Sir.syms e

(* defs of register variables inside the loop (for invariance) *)
let loop_defs prog (f : Sir.func) body =
  let defs = Hashtbl.create 16 in
  List.iter
    (fun bid ->
      List.iter
        (fun (s : Sir.stmt) ->
          match Sir.stmt_def s.Sir.kind with
          | Some v ->
            Hashtbl.replace defs (Symtab.orig prog.Sir.syms v).Symtab.vid ()
          | None -> ())
        (Sir.block f bid).Sir.stmts)
    body;
  defs

let promote_loop prog (annot : Spec_alias.Annotate.info) (kctx : Kills.ctx)
    (st : stats) (f : Sir.func) (dom : Dom.t) (l : Cfg_utils.loop) =
  let syms = prog.Sir.syms in
  let header = Sir.block f l.Cfg_utils.header in
  let outside =
    List.filter (fun p -> not (List.mem p l.Cfg_utils.body)) header.Sir.preds
  in
  match outside with
  | [ ph ] ->
    let defs = loop_defs prog f l.Cfg_utils.body in
    (* every-iteration blocks: dominate all back-edge sources *)
    let every_iter bid =
      List.for_all (fun src -> Dom.dominates dom bid src) l.Cfg_utils.back_edges
    in
    (* 1. collect groups over invariant-address references *)
    let groups : (string, group) Hashtbl.t = Hashtbl.create 8 in
    let rejected : (string, unit) Hashtbl.t = Hashtbl.create 8 in
    let note_ref ~is_store ~bid ty a site =
      Kills.register_site_addr kctx site a;
      let key = addr_key prog a in
      if expr_is_invariant prog defs a then begin
        let g =
          match Hashtbl.find_opt groups key with
          | Some g -> g
          | None ->
            let g =
              { g_key = key; g_ty = ty; g_addr = a; g_site = site;
                g_loads = 0; g_stores = 0; g_has_every_iter_store = false }
            in
            Hashtbl.replace groups key g;
            g
        in
        if g.g_ty <> ty then Hashtbl.replace rejected key ();
        if is_store then begin
          g.g_stores <- g.g_stores + 1;
          if every_iter bid then g.g_has_every_iter_store <- true
        end
        else g.g_loads <- g.g_loads + 1
      end
      else Hashtbl.replace rejected key ()
    in
    List.iter
      (fun bid ->
        let b = Sir.block f bid in
        let scan e =
          Sir.iter_subexprs
            (function
              | Sir.Ilod (ty, a, site) -> note_ref ~is_store:false ~bid ty a site
              | _ -> ())
            e
        in
        List.iter
          (fun (s : Sir.stmt) ->
            List.iter scan (Sir.stmt_exprs s.Sir.kind);
            match s.Sir.kind with
            | Sir.Istr (ty, a, _, site) -> note_ref ~is_store:true ~bid ty a site
            | _ -> ())
          b.Sir.stmts;
        List.iter scan (Sir.term_exprs b.Sir.term))
      l.Cfg_utils.body;
    (* 2. check soundness per group, gathering check-insertion points *)
    let exits =
      List.sort_uniq compare
        (List.concat_map
           (fun bid ->
             List.filter
               (fun s -> not (List.mem s l.Cfg_utils.body))
               (Sir.succs (Sir.block f bid)))
           l.Cfg_utils.body)
    in
    let exits_private =
      List.for_all
        (fun e ->
          List.for_all
            (fun p -> List.mem p l.Cfg_utils.body)
            (Sir.block f e).Sir.preds)
        exits
    in
    let rec try_group _key (g : group) =
      if Hashtbl.mem rejected g.g_key then ()
      else if not (g.g_has_every_iter_store && exits_private) then ()
      else if g.g_stores + g.g_loads < 2 then ()
      else begin
        (* variables the promoted location may alias: direct loads of them
           inside the loop would read the stale cell — unrecoverable *)
        let hazard_vars =
          match Spec_alias.Annotate.site_definite annot g.g_site with
          | Some (Loc.Lheap _) -> []
          | Some (Loc.Lvar x) -> [ x ]
          | None -> (
              match Spec_alias.Steensgaard.class_of_site
                      annot.Spec_alias.Annotate.sol g.g_site with
              | Some cls ->
                Spec_alias.Steensgaard.vars_in_class
                  annot.Spec_alias.Annotate.sol cls
              | None -> [])
        in
        (* scan other refs for hazards; collect weak stores needing checks *)
        let ok = ref true in
        let weak_stores : Sir.stmt list ref = ref [] in
        List.iter
          (fun bid ->
            let b = Sir.block f bid in
            let scan_loads e =
              Sir.iter_subexprs
                (function
                  | Sir.Lod v
                    when Symtab.is_mem syms v
                         && List.mem (Symtab.orig syms v).Symtab.vid
                              hazard_vars ->
                    ok := false
                  | Sir.Ilod (_, a, site) when addr_key prog a <> g.g_key ->
                    (* a different-syntax load that may alias the group's
                       location is an unrecoverable hazard *)
                    let same_class =
                      match
                        Spec_alias.Annotate.site_virtual annot site,
                        Spec_alias.Annotate.site_virtual annot g.g_site
                      with
                      | Some a', Some b' -> a' = b'
                      | _ -> true
                    in
                    let disjoint =
                      match
                        Spec_alias.Annotate.site_definite annot site,
                        Spec_alias.Annotate.site_definite annot g.g_site
                      with
                      | Some x, Some y -> not (Loc.equal x y)
                      | _ -> false
                    in
                    if same_class && not disjoint then ok := false
                  | _ -> ())
                e
            in
            List.iter
              (fun (s : Sir.stmt) ->
                List.iter scan_loads (Sir.stmt_exprs s.Sir.kind);
                match s.Sir.kind with
                | Sir.Istr (_, a, _, _) when addr_key prog a <> g.g_key -> (
                    match Kills.classify kctx (Kills.Tsite g.g_site) s with
                    | Kills.Knone -> ()
                    | Kills.Kweak -> weak_stores := s :: !weak_stores
                    | Kills.Kstrong -> ok := false)
                | Sir.Call { callee; _ } when not (Sir.is_builtin callee) ->
                  (* a call that may MODIFY the class kills the group; a
                     call that may merely READ it would observe the stale
                     memory cell — both reject promotion *)
                  (match Kills.classify kctx (Kills.Tsite g.g_site) s with
                   | Kills.Knone -> ()
                   | Kills.Kweak | Kills.Kstrong -> ok := false);
                  (match Spec_alias.Annotate.site_virtual annot g.g_site with
                   | Some vv ->
                     if List.exists (fun (m : Sir.mu) -> m.Sir.mu_var = vv)
                          s.Sir.mus
                        || List.exists
                             (fun (c : Sir.chi) -> c.Sir.chi_var = vv)
                             s.Sir.chis
                     then ok := false
                   | None -> ok := false)
                | _ -> ())
              b.Sir.stmts;
            List.iter scan_loads (Sir.term_exprs b.Sir.term))
          l.Cfg_utils.body;
        if !ok then apply_group g !weak_stores
      end
    and apply_group (g : group) weak_stores =
      let t =
        Symtab.add syms
          ~name:(Printf.sprintf "sp%d" (Symtab.count syms))
          ~ty:g.g_ty ~storage:Symtab.Stemp ~func:(Some f.Sir.fname) ()
      in
      f.Sir.flocals <- t.Symtab.vid :: f.Sir.flocals;
      let tv = t.Symtab.vid in
      let mk_load mark =
        let s =
          Sir.new_stmt prog
            (Sir.Stid (tv, Sir.Ilod (g.g_ty, g.g_addr, g.g_site)))
        in
        s.Sir.mark <- mark;
        s
      in
      (* preheader: arm the ALAT; control+data speculative (the loop may
         take paths that never touch A before the first group store) *)
      let pre = Sir.block f ph in
      pre.Sir.stmts <- pre.Sir.stmts @ [ mk_load Sir.Msa ];
      (* rewrite group refs and insert checks after weak stores *)
      let rec rw e =
        match e with
        | Sir.Ilod (ty, a, _) when ty = g.g_ty && addr_key prog a = g.g_key ->
          st.loads_gone <- st.loads_gone + 1;
          Sir.Lod tv
        | Sir.Const _ | Sir.Lod _ | Sir.Lda _ -> e
        | Sir.Ilod (ty, a, site) -> Sir.Ilod (ty, rw a, site)
        | Sir.Unop (o, ty, x) -> Sir.Unop (o, ty, rw x)
        | Sir.Binop (o, ty, a, b) -> Sir.Binop (o, ty, rw a, rw b)
      in
      List.iter
        (fun bid ->
          let b = Sir.block f bid in
          b.Sir.stmts <-
            List.concat_map
              (fun (s : Sir.stmt) ->
                s.Sir.kind <- Sir.map_stmt_exprs rw s.Sir.kind;
                (match s.Sir.kind with
                 | Sir.Istr (ty, a, v, _)
                   when ty = g.g_ty && addr_key prog a = g.g_key ->
                   st.stores_gone <- st.stores_gone + 1;
                   s.Sir.kind <- Sir.Stid (tv, v)
                 | _ -> ());
                if List.memq s weak_stores then begin
                  let chk = mk_load Sir.Mchk in
                  chk.Sir.check_of <- s.Sir.sid;
                  st.checks <- st.checks + 1;
                  [ s; chk ]
                end
                else [ s ])
              b.Sir.stmts;
          b.Sir.term <- Sir.map_term_exprs rw b.Sir.term)
        l.Cfg_utils.body;
      (* exits: write the promoted value back *)
      List.iter
        (fun e ->
          let eb = Sir.block f e in
          let wb =
            Sir.new_stmt prog
              (Sir.Istr (g.g_ty, g.g_addr, Sir.Lod tv, g.g_site))
          in
          eb.Sir.stmts <- wb :: eb.Sir.stmts)
        exits;
      st.promoted <- st.promoted + 1
    in
    Hashtbl.iter try_group groups
  | _ -> ()

(** Promote store-carrying invariant-address locations in one function's
    loops, innermost first.  [prog] may be a per-task view of the real
    program (cloned symbol table, private statement counter); [kctx]
    must be private to the task — its site-address table is mutated. *)
let run_func ?dom (prog : Sir.prog) (annot : Spec_alias.Annotate.info)
    (kctx : Kills.ctx) (f : Sir.func) : stats =
  let st = { promoted = 0; loads_gone = 0; stores_gone = 0; checks = 0 } in
  let dom =
    match dom with
    | Some d -> d
    | None ->
      Sir.recompute_preds f;
      Dom.compute f
  in
  let loops =
    List.sort
      (fun a b -> compare b.Cfg_utils.depth a.Cfg_utils.depth)
      (Cfg_utils.natural_loops f dom)
  in
  List.iter (promote_loop prog annot kctx st f dom) loops;
  st

(** Promote store-carrying invariant-address locations in every loop,
    innermost first.  Expects de-versioned SIR; [annot]/[kctx] must be
    freshly computed for the same program. *)
let run ?dom_of (prog : Sir.prog) (annot : Spec_alias.Annotate.info)
    (kctx : Kills.ctx) : stats =
  let st = { promoted = 0; loads_gone = 0; stores_gone = 0; checks = 0 } in
  Sir.iter_funcs
    (fun f ->
      let dom = Option.map (fun get -> get f) dom_of in
      let fst_ = run_func ?dom prog annot kctx f in
      st.promoted <- st.promoted + fst_.promoted;
      st.loads_gone <- st.loads_gone + fst_.loads_gone;
      st.stores_gone <- st.stores_gone + fst_.stores_gone;
      st.checks <- st.checks + fst_.checks)
    prog;
  st

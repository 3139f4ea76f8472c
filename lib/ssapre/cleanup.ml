(** Scalar cleanup passes: constant folding, block-local copy/constant
    propagation, and liveness-based dead-code elimination.

    These run after PRE and strength reduction to tidy what those passes
    expose — folded strength-reduction initializers, propagated copies
    into check-load address expressions, and dead induction updates.  Only
    register-resident variables are touched; memory and control flow are
    never changed, and statements carrying speculation marks are kept (the
    machine's ALAT behaviour depends on them). *)

open Spec_ir

type stats = {
  mutable folded : int;
  mutable propagated : int;
  mutable removed : int;
}

(* ---- constant folding ---- *)

let rec fold_expr (st : stats) (e : Sir.expr) : Sir.expr =
  match e with
  | Sir.Const _ | Sir.Lod _ | Sir.Lda _ -> e
  | Sir.Ilod (t, a, site) -> Sir.Ilod (t, fold_expr st a, site)
  | Sir.Unop (op, ty, x) -> (
      let x = fold_expr st x in
      match op, x with
      | Sir.Neg, Sir.Const (Sir.Cint i) ->
        st.folded <- st.folded + 1;
        Sir.Const (Sir.Cint (-i))
      | Sir.Neg, Sir.Const (Sir.Cflt f) ->
        st.folded <- st.folded + 1;
        Sir.Const (Sir.Cflt (-.f))
      | Sir.Lnot, Sir.Const (Sir.Cint i) ->
        st.folded <- st.folded + 1;
        Sir.Const (Sir.Cint (if i = 0 then 1 else 0))
      | Sir.I2f, Sir.Const (Sir.Cint i) ->
        st.folded <- st.folded + 1;
        Sir.Const (Sir.Cflt (float_of_int i))
      | Sir.F2i, Sir.Const (Sir.Cflt f) ->
        st.folded <- st.folded + 1;
        Sir.Const (Sir.Cint (int_of_float f))
      | _ -> Sir.Unop (op, ty, x))
  | Sir.Binop (op, ty, a, b) -> (
      let a = fold_expr st a in
      let b = fold_expr st b in
      let int_fold i j =
        match op with
        | Sir.Add -> Some (i + j)
        | Sir.Sub -> Some (i - j)
        | Sir.Mul -> Some (i * j)
        | Sir.Div -> if j = 0 then None else Some (i / j)
        | Sir.Rem -> if j = 0 then None else Some (i mod j)
        | Sir.Band -> Some (i land j)
        | Sir.Bor -> Some (i lor j)
        | Sir.Bxor -> Some (i lxor j)
        | Sir.Shl -> Some (i lsl (j land 63))
        | Sir.Shr -> Some (i asr (j land 63))
        | Sir.Lt -> Some (if i < j then 1 else 0)
        | Sir.Le -> Some (if i <= j then 1 else 0)
        | Sir.Gt -> Some (if i > j then 1 else 0)
        | Sir.Ge -> Some (if i >= j then 1 else 0)
        | Sir.Eq -> Some (if i = j then 1 else 0)
        | Sir.Ne -> Some (if i <> j then 1 else 0)
      in
      match a, b, ty with
      | Sir.Const (Sir.Cint i), Sir.Const (Sir.Cint j), _
        when not (Types.is_fp ty) -> (
          match int_fold i j with
          | Some r ->
            st.folded <- st.folded + 1;
            Sir.Const (Sir.Cint r)
          | None -> Sir.Binop (op, ty, a, b))
      (* algebraic identities over the integers *)
      | x, Sir.Const (Sir.Cint 0), _
        when (op = Sir.Add || op = Sir.Sub) && not (Types.is_fp ty) ->
        st.folded <- st.folded + 1;
        x
      | Sir.Const (Sir.Cint 0), x, _ when op = Sir.Add && not (Types.is_fp ty)
        ->
        st.folded <- st.folded + 1;
        x
      | x, Sir.Const (Sir.Cint 1), _ when op = Sir.Mul && not (Types.is_fp ty)
        ->
        st.folded <- st.folded + 1;
        x
      | Sir.Const (Sir.Cint 1), x, _ when op = Sir.Mul && not (Types.is_fp ty)
        ->
        st.folded <- st.folded + 1;
        x
      (* reassociate (e + c1) + c2 -> e + (c1+c2): shortens the address
         chains that check loads re-materialize *)
      | Sir.Binop (Sir.Add, ty', x, Sir.Const (Sir.Cint c1)),
        Sir.Const (Sir.Cint c2), _
        when op = Sir.Add && not (Types.is_fp ty) ->
        st.folded <- st.folded + 1;
        Sir.Binop (Sir.Add, ty', x, Sir.Const (Sir.Cint (c1 + c2)))
      | _ -> Sir.Binop (op, ty, a, b))

(* ---- block-local copy / constant propagation ---- *)

(* value a register variable is known to hold at the current point *)
type known = Kconst of Sir.const | Kcopy of int

let propagate_block (st : stats) syms (b : Sir.bb) =
  let env : (int, known) Hashtbl.t = Hashtbl.create 8 in
  let kill v = Hashtbl.remove env v in
  let kill_copies_of v =
    let stale =
      Hashtbl.fold
        (fun k kn acc -> if kn = Kcopy v then k :: acc else acc)
        env []
    in
    List.iter (Hashtbl.remove env) stale
  in
  let subst e =
    Sir.map_expr_uses
      (fun v ->
        match Hashtbl.find_opt env v with
        | Some (Kcopy u) ->
          st.propagated <- st.propagated + 1;
          u
        | _ -> v)
      e
  in
  let subst_consts e =
    let rec go e =
      match e with
      | Sir.Lod v -> (
          match Hashtbl.find_opt env v with
          | Some (Kconst c) ->
            st.propagated <- st.propagated + 1;
            Sir.Const c
          | _ -> e)
      | Sir.Const _ | Sir.Lda _ -> e
      | Sir.Ilod (t, a, s) -> Sir.Ilod (t, go a, s)
      | Sir.Unop (o, t, x) -> Sir.Unop (o, t, go x)
      | Sir.Binop (o, t, a, bb) -> Sir.Binop (o, t, go a, go bb)
    in
    go e
  in
  let apply e = subst_consts (subst e) in
  List.iter
    (fun (s : Sir.stmt) ->
      s.Sir.kind <- Sir.map_stmt_exprs apply s.Sir.kind;
      match s.Sir.kind, s.Sir.mark with
      | Sir.Stid (v, rhs), Sir.Mnone when not (Symtab.is_mem syms v) -> (
          kill v;
          kill_copies_of v;
          match rhs with
          | Sir.Const c -> Hashtbl.replace env v (Kconst c)
          | Sir.Lod u when not (Symtab.is_mem syms u) && u <> v ->
            Hashtbl.replace env v (Kcopy u)
          | _ -> ())
      | _ ->
        (match Sir.stmt_def s.Sir.kind with
         | Some v ->
           kill v;
           kill_copies_of v
         | None -> ()))
    b.Sir.stmts;
  b.Sir.term <- Sir.map_term_exprs apply b.Sir.term

(* ---- liveness-based dead code elimination ---- *)

let dce_func ?(pin = fun _ -> false) (st : stats) (prog : Sir.prog)
    (f : Sir.func) =
  let syms = prog.Sir.syms in
  Sir.recompute_preds f;
  let n = Sir.n_blocks f in
  let module IS = Set.Make (Int) in
  let reg v = not (Symtab.is_mem syms v) in
  let uses_of_stmt (s : Sir.stmt) =
    let base =
      List.fold_left
        (fun acc e ->
          let acc = ref acc in
          Sir.iter_expr_uses (fun v -> if reg v then acc := IS.add v !acc) e;
          !acc)
        IS.empty
        (Sir.stmt_exprs s.Sir.kind)
    in
    (* a check load (ld.c) keeps its destination on an ALAT hit: the
       destination's prior value is consumed, so it counts as a use *)
    match s.Sir.mark, Sir.stmt_def s.Sir.kind with
    | Sir.Mchk, Some d when reg d -> IS.add d base
    | _ -> base
  in
  let live_in = Array.make n IS.empty in
  let live_out = Array.make n IS.empty in
  let transfer bid out =
    let b = Sir.block f bid in
    let live = ref out in
    List.iter
      (fun e ->
        Sir.iter_expr_uses (fun v -> if reg v then live := IS.add v !live) e)
      (Sir.term_exprs b.Sir.term);
    List.iter
      (fun (s : Sir.stmt) ->
        (match Sir.stmt_def s.Sir.kind with
         | Some v when reg v -> live := IS.remove v !live
         | _ -> ());
        live := IS.union !live (uses_of_stmt s))
      (List.rev b.Sir.stmts);
    !live
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for bid = n - 1 downto 0 do
      let out =
        List.fold_left
          (fun acc s -> IS.union acc live_in.(s))
          IS.empty
          (Sir.succs (Sir.block f bid))
      in
      live_out.(bid) <- out;
      let inn = transfer bid out in
      if not (IS.equal inn live_in.(bid)) then begin
        live_in.(bid) <- inn;
        changed := true
      end
    done
  done;
  (* second pass: delete dead register assignments (pure RHS, unmarked) *)
  for bid = 0 to n - 1 do
    let b = Sir.block f bid in
    let live = ref live_out.(bid) in
    (* walk backwards, recording which statements to keep *)
    List.iter
      (fun e ->
        Sir.iter_expr_uses (fun v -> if reg v then live := IS.add v !live) e)
      (Sir.term_exprs b.Sir.term);
    let kept =
      List.rev_map
        (fun (s : Sir.stmt) ->
          let keep =
            match s.Sir.kind, s.Sir.mark with
            | Sir.Stid (v, rhs), Sir.Mnone
              when reg v && not (IS.mem v !live) && not (pin v) ->
              (* dead; safe to drop only if the RHS cannot fault *)
              let has_load = ref false in
              Sir.iter_subexprs
                (function
                  | Sir.Ilod _ -> has_load := true
                  | Sir.Binop ((Sir.Div | Sir.Rem), _, _, _) ->
                    has_load := true
                  | Sir.Lod u when Symtab.is_mem syms u -> has_load := true
                  | _ -> ())
                rhs;
              !has_load
            | Sir.Snop, _ -> false
            | _ -> true
          in
          if keep then begin
            (match Sir.stmt_def s.Sir.kind with
             | Some v when reg v -> live := IS.remove v !live
             | _ -> ());
            live := IS.union !live (uses_of_stmt s)
          end
          else st.removed <- st.removed + 1;
          (s, keep))
        (List.rev b.Sir.stmts)
    in
    b.Sir.stmts <- List.filter_map (fun (s, k) -> if k then Some s else None) kept
  done

(** Run folding, local propagation, and DCE on one function to a
    (bounded) fixpoint.  Cleanup carries no cross-function state, so
    running the three iterations per function is equivalent to the
    whole-program [run] below (which interleaves functions per
    iteration). *)
let run_func ?pin (prog : Sir.prog) (f : Sir.func) : stats =
  let st = { folded = 0; propagated = 0; removed = 0 } in
  let syms = prog.Sir.syms in
  for _pass = 1 to 3 do
    Vec.iter
      (fun (b : Sir.bb) ->
        List.iter
          (fun (s : Sir.stmt) ->
            s.Sir.kind <- Sir.map_stmt_exprs (fold_expr st) s.Sir.kind)
          b.Sir.stmts;
        b.Sir.term <- Sir.map_term_exprs (fold_expr st) b.Sir.term;
        propagate_block st syms b)
      f.Sir.fblocks;
    dce_func ?pin st prog f
  done;
  st

let add_stats (a : stats) (b : stats) =
  a.folded <- a.folded + b.folded;
  a.propagated <- a.propagated + b.propagated;
  a.removed <- a.removed + b.removed

(** Run folding, local propagation, and DCE to a (bounded) fixpoint. *)
let run (prog : Sir.prog) : stats =
  let st = { folded = 0; propagated = 0; removed = 0 } in
  let syms = prog.Sir.syms in
  for _pass = 1 to 3 do
    Sir.iter_funcs
      (fun f ->
        Vec.iter
          (fun (b : Sir.bb) ->
            List.iter
              (fun (s : Sir.stmt) ->
                s.Sir.kind <-
                  Sir.map_stmt_exprs (fold_expr st) s.Sir.kind)
              b.Sir.stmts;
            b.Sir.term <- Sir.map_term_exprs (fold_expr st) b.Sir.term;
            propagate_block st syms b)
          f.Sir.fblocks;
        dce_func st prog f)
      prog
  done;
  st

(** Typed lowering from the mini-C AST to SIR.

    This pass performs type checking (with numeric coercions and scaled
    pointer arithmetic) while building the control-flow graph.  Array
    variables decay to their address; address-taken locals are flagged in
    the symbol table so later phases treat them as memory resident. *)

open Ast

type fsig = { sig_ret : Types.ty; sig_formals : Types.ty list }

type env = {
  prog : Sir.prog;
  fsigs : (string, fsig) Hashtbl.t;
  mutable scopes : (string * int) list list;  (* innermost first *)
  mutable func : Sir.func;
  mutable cur : Sir.bb;                        (* block under construction *)
  mutable breaks : int list;                   (* target stack *)
  mutable continues : int list;
}

let builtin_sigs =
  [ "malloc", { sig_ret = Types.Tptr Types.Tint; sig_formals = [ Types.Tint ] };
    "print_int", { sig_ret = Types.Tvoid; sig_formals = [ Types.Tint ] };
    "print_flt", { sig_ret = Types.Tvoid; sig_formals = [ Types.Tflt ] };
    "seed", { sig_ret = Types.Tvoid; sig_formals = [ Types.Tint ] };
    "rnd", { sig_ret = Types.Tint; sig_formals = [ Types.Tint ] } ]

let lookup_var env pos name =
  let rec go = function
    | [] -> error pos "undefined variable %s" name
    | scope :: rest ->
      (match List.assoc_opt name scope with
       | Some id -> id
       | None -> go rest)
  in
  go env.scopes

let bind_var env name id =
  match env.scopes with
  | scope :: rest -> env.scopes <- ((name, id) :: scope) :: rest
  | [] -> assert false

let push_scope env = env.scopes <- [] :: env.scopes
let pop_scope env =
  match env.scopes with
  | _ :: rest -> env.scopes <- rest
  | [] -> assert false

(* A block under construction holds its statements in reverse; [lower]
   turns every block of a function around once its body is lowered. *)
let emit env kind =
  let s = Sir.new_stmt env.prog kind in
  env.cur.Sir.stmts <- s :: env.cur.Sir.stmts

let start_block env =
  let b = Sir.new_bb env.func in
  env.cur <- b;
  b

(* ---- expression lowering ---- *)

(** Coerce expression [e] of type [from_] to type [to_]. *)
let coerce pos (e, from_) to_ =
  let open Types in
  match from_, to_ with
  | a, b when Types.equal a b -> e
  | Tint, Tflt -> Sir.Unop (Sir.I2f, Tflt, e)
  | Tflt, Tint -> Sir.Unop (Sir.F2i, Tint, e)
  | Tptr _, Tptr _ | Tptr _, Tint | Tint, Tptr _ -> e  (* re-typing only *)
  | _ ->
    error pos "cannot convert %s to %s"
      (Types.to_string from_) (Types.to_string to_)

let scale_index e =
  match e with
  | Sir.Const (Sir.Cint i) -> Sir.Const (Sir.Cint (i * Types.cell_size))
  | _ ->
    Sir.Binop (Sir.Mul, Types.Tint, e, Sir.Const (Sir.Cint Types.cell_size))

let is_array syms id = (Symtab.var syms id).Symtab.varray

let rec lower_expr env (e : Ast.expr) : Sir.expr * Types.ty =
  let syms = env.prog.Sir.syms in
  match e with
  | Eint (_, i) -> Sir.Const (Sir.Cint i), Types.Tint
  | Eflt (_, f) -> Sir.Const (Sir.Cflt f), Types.Tflt
  | Evar (pos, name) ->
    let id = lookup_var env pos name in
    if is_array syms id then
      (* array decays to its address *)
      Sir.Lda id, Types.Tptr (Symtab.var syms id).Symtab.velt
    else Sir.Lod id, Symtab.ty syms id
  | Eun (pos, "*", inner) ->
    let a, ta = lower_expr env inner in
    if not (Types.is_ptr ta) then
      error pos "dereference of non-pointer (%s)" (Types.to_string ta);
    let elt = Types.deref ta in
    let fn = env.func.Sir.fname in
    let site = Sir.new_site ~func:fn ~line:pos ~kind:Sir.Kiload env.prog in
    Sir.Ilod (elt, a, site), elt
  | Eun (pos, "&", inner) -> lower_addr env pos inner
  | Eun (pos, "-", inner) ->
    let e', t = lower_expr env inner in
    (match t with
     | Types.Tint -> Sir.Unop (Sir.Neg, Types.Tint, e'), Types.Tint
     | Types.Tflt -> Sir.Unop (Sir.Neg, Types.Tflt, e'), Types.Tflt
     | _ -> error pos "cannot negate %s" (Types.to_string t))
  | Eun (pos, "!", inner) ->
    let e', t = lower_expr env inner in
    let e' = coerce pos (e', t) Types.Tint in
    Sir.Unop (Sir.Lnot, Types.Tint, e'), Types.Tint
  | Eun (pos, op, _) -> error pos "unknown unary operator %s" op
  | Eidx (pos, base, idx) ->
    let addr, elt = lower_index_addr env pos base idx in
    let fn = env.func.Sir.fname in
    let site = Sir.new_site ~func:fn ~line:pos ~kind:Sir.Kiload env.prog in
    Sir.Ilod (elt, addr, site), elt
  | Ebin (pos, op, a, b) -> lower_binop env pos op a b
  | Ecall (pos, name, args) ->
    (* calls in expression position: only builtins with results (rnd) or
       user functions — materialize through a temp *)
    let ret_ty, stmt_ret = lower_call env pos name args in
    (match stmt_ret with
     | Some tmp -> Sir.Lod tmp, ret_ty
     | None -> error pos "void call %s used as a value" name)
  | Ecast (pos, t, inner) ->
    let e', from_ = lower_expr env inner in
    let to_ = Ast.to_ir_ty t in
    coerce pos (e', from_) to_, to_

and lower_index_addr env pos base idx =
  let b, tb = lower_expr env base in
  if not (Types.is_ptr tb) then
    error pos "indexing a non-pointer (%s)" (Types.to_string tb);
  let elt = Types.deref tb in
  let i, ti = lower_expr env idx in
  let i = coerce pos (i, ti) Types.Tint in
  Sir.Binop (Sir.Add, tb, b, scale_index i), elt

and lower_addr env pos (e : Ast.expr) : Sir.expr * Types.ty =
  let syms = env.prog.Sir.syms in
  match e with
  | Evar (p, name) ->
    let id = lookup_var env p name in
    Symtab.set_addr_taken syms id;
    let v = Symtab.var syms id in
    Sir.Lda id, Types.Tptr v.Symtab.velt
  | Eidx (p, base, idx) ->
    let addr, elt = lower_index_addr env p base idx in
    addr, Types.Tptr elt
  | Eun (_, "*", inner) ->
    let a, ta = lower_expr env inner in
    if not (Types.is_ptr ta) then
      error pos "dereference of non-pointer in address expression";
    a, ta
  | _ -> error pos "cannot take address of this expression"

and lower_binop env pos op a b =
  let ea, ta = lower_expr env a in
  let eb, tb = lower_expr env b in
  let open Types in
  let arith sop =
    match ta, tb with
    | Tflt, _ | _, Tflt ->
      let ea = coerce pos (ea, ta) Tflt and eb = coerce pos (eb, tb) Tflt in
      Sir.Binop (sop, Tflt, ea, eb), Tflt
    | Tptr _, Tint when sop = Sir.Add || sop = Sir.Sub ->
      Sir.Binop (sop, ta, ea, scale_index eb), ta
    | Tint, Tptr _ when sop = Sir.Add ->
      Sir.Binop (sop, tb, eb, scale_index ea), tb
    | _ ->
      let ea = coerce pos (ea, ta) Tint and eb = coerce pos (eb, tb) Tint in
      Sir.Binop (sop, Tint, ea, eb), Tint
  in
  let compare sop =
    match ta, tb with
    | Tflt, _ | _, Tflt ->
      let ea = coerce pos (ea, ta) Tflt and eb = coerce pos (eb, tb) Tflt in
      Sir.Binop (sop, Tint, ea, eb), Tint
    | _ -> Sir.Binop (sop, Tint, ea, eb), Tint
  in
  let logical sop =
    (* strict (non-short-circuit) logical operators over 0/1 ints *)
    let norm e t =
      let e = coerce pos (e, t) Tint in
      Sir.Binop (Sir.Ne, Tint, e, Sir.Const (Sir.Cint 0))
    in
    Sir.Binop (sop, Tint, norm ea ta, norm eb tb), Tint
  in
  match op with
  | "+" -> arith Sir.Add
  | "-" -> arith Sir.Sub
  | "*" -> arith Sir.Mul
  | "/" -> arith Sir.Div
  | "%" -> arith Sir.Rem
  | "<" -> compare Sir.Lt
  | "<=" -> compare Sir.Le
  | ">" -> compare Sir.Gt
  | ">=" -> compare Sir.Ge
  | "==" -> compare Sir.Eq
  | "!=" -> compare Sir.Ne
  | "&" -> arith Sir.Band
  | "|" -> arith Sir.Bor
  | "^" -> arith Sir.Bxor
  | "<<" -> arith Sir.Shl
  | ">>" -> arith Sir.Shr
  | "&&" -> logical Sir.Band
  | "||" -> logical Sir.Bor
  | _ -> error pos "unknown binary operator %s" op

(** Lower a call; returns its type and, for non-void calls, the temp
    holding the result. *)
and lower_call env pos name args =
  let fsig =
    match Hashtbl.find_opt env.fsigs name with
    | Some s -> s
    | None ->
      (match List.assoc_opt name builtin_sigs with
       | Some s -> s
       | None -> error pos "undefined function %s" name)
  in
  if List.length args <> List.length fsig.sig_formals then
    error pos "%s expects %d argument(s), got %d" name
      (List.length fsig.sig_formals) (List.length args);
  let lowered =
    List.map2
      (fun a ft -> coerce pos (lower_expr env a) ft)
      args fsig.sig_formals
  in
  let ret =
    if Types.equal fsig.sig_ret Types.Tvoid then None
    else begin
      let tmp =
        Symtab.add env.prog.Sir.syms
          ~name:(Printf.sprintf "%s_r%d" name (Symtab.count env.prog.Sir.syms))
          ~ty:fsig.sig_ret ~storage:Symtab.Stemp
          ~func:(Some env.func.Sir.fname) ()
      in
      env.func.Sir.flocals <- tmp.Symtab.vid :: env.func.Sir.flocals;
      Some tmp.Symtab.vid
    end
  in
  let fn = env.func.Sir.fname in
  let csite = Sir.new_site ~func:fn ~line:pos ~kind:Sir.Kcall env.prog in
  emit env (Sir.Call { callee = name; args = lowered; ret; csite });
  fsig.sig_ret, ret

(* ---- statement lowering ---- *)

let rec lower_stmt env (s : Ast.stmt) : unit =
  let syms = env.prog.Sir.syms in
  match s with
  | Sblock body ->
    push_scope env;
    List.iter (lower_stmt env) body;
    pop_scope env
  | Sdecl (pos, t, name, size, init) ->
    let ty = Ast.to_ir_ty t in
    let v =
      match size with
      | None ->
        Symtab.add syms ~name ~ty ~storage:Symtab.Slocal
          ~func:(Some env.func.Sir.fname) ()
      | Some n ->
        if n <= 0 then error pos "array size must be positive";
        Symtab.add syms ~name ~ty:(Types.Tptr ty)
          ~storage:Symtab.Slocal ~func:(Some env.func.Sir.fname)
          ~size:(n * Types.cell_size) ~elt:ty ~is_array:true ()
    in
    env.func.Sir.flocals <- v.Symtab.vid :: env.func.Sir.flocals;
    bind_var env name v.Symtab.vid;
    (match init with
     | None -> ()
     | Some e ->
       if size <> None then error pos "array initializers are not supported";
       let rhs = coerce pos (lower_expr env e) ty in
       emit env (Sir.Stid (v.Symtab.vid, rhs)))
  | Sassign (pos, lhs, rhs) -> lower_assign env pos lhs rhs
  | Sexpr (pos, e) ->
    (match e with
     | Ecall (p, name, args) -> ignore (lower_call env p name args)
     | _ ->
       (* evaluate for effect; side-effect-free expressions are dropped *)
       ignore (lower_expr env e);
       ignore pos)
  | Sreturn (pos, e) ->
    let ret_e =
      match e, env.func.Sir.fret with
      | None, Types.Tvoid -> None
      | None, t ->
        error pos "missing return value (function returns %s)"
          (Types.to_string t)
      | Some _, Types.Tvoid -> error pos "void function returns a value"
      | Some e, t -> Some (coerce pos (lower_expr env e) t)
    in
    env.cur.Sir.term <- Sir.Tret ret_e;
    ignore (start_block env)  (* unreachable continuation *)
  | Sif (pos, cond, th, el) ->
    let c = coerce pos (lower_expr env cond) Types.Tint in
    let cond_bb = env.cur in
    let then_bb = start_block env in
    lower_stmt env th;
    let then_end = env.cur in
    let else_bb, else_end =
      match el with
      | None -> None, None
      | Some s ->
        let b = start_block env in
        lower_stmt env s;
        Some b, Some env.cur
    in
    let join = start_block env in
    (match else_bb with
     | None ->
       cond_bb.Sir.term <- Sir.Tcond (c, then_bb.Sir.bid, join.Sir.bid)
     | Some eb ->
       cond_bb.Sir.term <- Sir.Tcond (c, then_bb.Sir.bid, eb.Sir.bid));
    then_end.Sir.term <- Sir.Tgoto join.Sir.bid;
    (match else_end with
     | Some ee -> ee.Sir.term <- Sir.Tgoto join.Sir.bid
     | None -> ())
  | Swhile (pos, cond, body) ->
    let before = env.cur in
    let head = start_block env in
    before.Sir.term <- Sir.Tgoto head.Sir.bid;
    let c = coerce pos (lower_expr env cond) Types.Tint in
    let cond_end = env.cur in
    let body_bb = start_block env in
    (* exit target allocated after body so ids stay compact *)
    env.breaks <- (-1) :: env.breaks;          (* patched below *)
    env.continues <- head.Sir.bid :: env.continues;
    let fixup_breaks = ref [] in
    lower_loop_body env body fixup_breaks;
    let body_end = env.cur in
    env.breaks <- List.tl env.breaks;
    env.continues <- List.tl env.continues;
    let exit_bb = start_block env in
    cond_end.Sir.term <- Sir.Tcond (c, body_bb.Sir.bid, exit_bb.Sir.bid);
    body_end.Sir.term <- Sir.Tgoto head.Sir.bid;
    List.iter (fun b -> b.Sir.term <- Sir.Tgoto exit_bb.Sir.bid) !fixup_breaks
  | Sfor (pos, init, cond, step, body) ->
    (match init with Some s -> lower_stmt env s | None -> ());
    let before = env.cur in
    let head = start_block env in
    before.Sir.term <- Sir.Tgoto head.Sir.bid;
    let c =
      match cond with
      | Some e -> coerce pos (lower_expr env e) Types.Tint
      | None -> Sir.Const (Sir.Cint 1)
    in
    let cond_end = env.cur in
    let body_bb = start_block env in
    let fixup_breaks = ref [] in
    (* continue in a for loop jumps to the step block *)
    let step_bb_id = ref (-1) in
    env.continues <- (-2) :: env.continues;  (* -2 = "pending step block" *)
    let fixup_continues = ref [] in
    lower_for_body env body fixup_breaks fixup_continues;
    let body_end = env.cur in
    env.continues <- List.tl env.continues;
    let step_bb = start_block env in
    step_bb_id := step_bb.Sir.bid;
    (match step with Some s -> lower_stmt env s | None -> ());
    let step_end = env.cur in
    let exit_bb = start_block env in
    cond_end.Sir.term <- Sir.Tcond (c, body_bb.Sir.bid, exit_bb.Sir.bid);
    body_end.Sir.term <- Sir.Tgoto step_bb.Sir.bid;
    step_end.Sir.term <- Sir.Tgoto head.Sir.bid;
    List.iter (fun b -> b.Sir.term <- Sir.Tgoto exit_bb.Sir.bid) !fixup_breaks;
    List.iter
      (fun b -> b.Sir.term <- Sir.Tgoto step_bb.Sir.bid)
      !fixup_continues
  | Sbreak pos ->
    if env.breaks = [] && env.continues = [] then error pos "break outside loop";
    record_jump env `Break
  | Scontinue pos ->
    if env.continues = [] then error pos "continue outside loop";
    record_jump env `Continue

(* break/continue support: since loop exit blocks are allocated after the
   body is lowered, jumps are recorded and patched by the loop lowerer.
   The current pending lists live in mutable refs threaded via
   [lower_loop_body]/[lower_for_body]. *)
and pending_breaks : Sir.bb list ref ref = ref (ref [])
and pending_continues : Sir.bb list ref ref = ref (ref [])

and record_jump env which =
  let b = env.cur in
  (match which with
   | `Break -> !pending_breaks := b :: !(!pending_breaks)
   | `Continue ->
     (match env.continues with
      | target :: _ when target >= 0 -> b.Sir.term <- Sir.Tgoto target
      | _ -> !pending_continues := b :: !(!pending_continues)));
  ignore (start_block env)

and lower_loop_body env body fixup_breaks =
  let saved_b = !pending_breaks and saved_c = !pending_continues in
  pending_breaks := fixup_breaks;
  lower_stmt env body;
  pending_breaks := saved_b;
  pending_continues := saved_c

and lower_for_body env body fixup_breaks fixup_continues =
  let saved_b = !pending_breaks and saved_c = !pending_continues in
  pending_breaks := fixup_breaks;
  pending_continues := fixup_continues;
  lower_stmt env body;
  pending_breaks := saved_b;
  pending_continues := saved_c

and lower_assign env pos lhs rhs =
  let syms = env.prog.Sir.syms in
  match lhs with
  | Evar (p, name) ->
    let id = lookup_var env p name in
    if is_array syms id then error p "cannot assign to an array";
    let ty = Symtab.ty syms id in
    let e = coerce pos (lower_expr env rhs) ty in
    emit env (Sir.Stid (id, e))
  | Eun (p, "*", inner) ->
    let a, ta = lower_expr env inner in
    if not (Types.is_ptr ta) then error p "store through non-pointer";
    let elt = Types.deref ta in
    let e = coerce pos (lower_expr env rhs) elt in
    let fn = env.func.Sir.fname in
    let site = Sir.new_site ~func:fn ~line:p ~kind:Sir.Kistore env.prog in
    emit env (Sir.Istr (elt, a, e, site))
  | Eidx (p, base, idx) ->
    let addr, elt = lower_index_addr env p base idx in
    let e = coerce pos (lower_expr env rhs) elt in
    let fn = env.func.Sir.fname in
    let site = Sir.new_site ~func:fn ~line:p ~kind:Sir.Kistore env.prog in
    emit env (Sir.Istr (elt, addr, e, site))
  | _ -> error pos "invalid assignment target"

(* ---- unreachable-block pruning ---- *)

(** Drop blocks unreachable from the entry, remapping block ids. *)
let prune_unreachable (f : Sir.func) =
  let n = Sir.n_blocks f in
  let reachable = Array.make n false in
  let rec dfs b =
    if not reachable.(b) then begin
      reachable.(b) <- true;
      List.iter dfs (Sir.succs (Sir.block f b))
    end
  in
  dfs Sir.entry_bid;
  let remap = Array.make n (-1) in
  let kept = ref [] in
  let next = ref 0 in
  for b = 0 to n - 1 do
    if reachable.(b) then begin
      remap.(b) <- !next;
      incr next;
      kept := Sir.block f b :: !kept
    end
  done;
  let kept = List.rev !kept in
  let remap_term = function
    | Sir.Tgoto b -> Sir.Tgoto remap.(b)
    | Sir.Tcond (e, t, e') -> Sir.Tcond (e, remap.(t), remap.(e'))
    | Sir.Tret _ as t -> t
  in
  (* rebuild the block table in place *)
  let blocks =
    List.map
      (fun (b : Sir.bb) ->
        { b with Sir.bid = remap.(b.Sir.bid); Sir.term = remap_term b.Sir.term })
      kept
  in
  f.Sir.fblocks.Vec.len <- 0;
  List.iter (Vec.push f.Sir.fblocks) blocks;
  Sir.recompute_preds f

(* ---- top level ---- *)

let lower (ast : Ast.program) : Sir.prog =
  let prog = Sir.create_prog () in
  let syms = prog.Sir.syms in
  let fsigs = Hashtbl.create 16 in
  let globals_scope = ref [] in
  (* pass 1: globals and signatures *)
  List.iter
    (function
      | Dglobal (pos, t, name, size, secret) ->
        if List.mem_assoc name !globals_scope then
          error pos "duplicate global %s" name;
        let ty = Ast.to_ir_ty t in
        let v =
          match size with
          | None ->
            Symtab.add syms ~name ~ty ~storage:Symtab.Sglobal ~func:None
              ~secret ()
          | Some n ->
            if n <= 0 then error pos "array size must be positive";
            Symtab.add syms ~name ~ty:(Types.Tptr ty) ~storage:Symtab.Sglobal
              ~func:None ~size:(n * Types.cell_size) ~elt:ty ~is_array:true
              ~secret ()
        in
        prog.Sir.globals <- prog.Sir.globals @ [ v.Symtab.vid ];
        globals_scope := (name, v.Symtab.vid) :: !globals_scope
      | Dfunc (pos, ret, name, formals, _) ->
        if Hashtbl.mem fsigs name || Sir.is_builtin name then
          error pos "duplicate function %s" name;
        Hashtbl.replace fsigs name
          { sig_ret =
              (match ret with Some t -> Ast.to_ir_ty t | None -> Types.Tvoid);
            sig_formals = List.map (fun (t, _, _) -> Ast.to_ir_ty t) formals })
    ast;
  (* pass 2: function bodies *)
  List.iter
    (function
      | Dglobal _ -> ()
      | Dfunc (_, ret, name, formals, body) ->
        let fret =
          match ret with Some t -> Ast.to_ir_ty t | None -> Types.Tvoid
        in
        let formal_vars =
          List.map
            (fun (t, n, secret) ->
              Symtab.add syms ~name:n ~ty:(Ast.to_ir_ty t)
                ~storage:Symtab.Sformal ~func:(Some name) ~secret ())
            formals
        in
        let f =
          Sir.create_func prog ~name ~ret:fret
            ~formals:(List.map (fun v -> v.Symtab.vid) formal_vars)
        in
        let env =
          { prog; fsigs; scopes = []; func = f;
            cur = Sir.block f Sir.entry_bid; breaks = []; continues = [] }
        in
        env.scopes <- [ !globals_scope ];
        push_scope env;
        List.iter2
          (fun (_, n, _) v -> bind_var env n v.Symtab.vid)
          formals formal_vars;
        push_scope env;
        List.iter (lower_stmt env) body;
        Vec.iter (fun b -> b.Sir.stmts <- List.rev b.Sir.stmts) f.Sir.fblocks;
        (* implicit return at fall-through *)
        (match env.cur.Sir.term, fret with
         | Sir.Tret _, _ -> ()
         | _, Types.Tvoid -> env.cur.Sir.term <- Sir.Tret None
         | _, Types.Tflt ->
           env.cur.Sir.term <- Sir.Tret (Some (Sir.Const (Sir.Cflt 0.)))
         | _, _ -> env.cur.Sir.term <- Sir.Tret (Some (Sir.Const (Sir.Cint 0))));
        prune_unreachable f)
    ast;
  prog

(** Parse and lower a source string. *)
let compile (src : string) : Sir.prog = lower (Parser.parse src)

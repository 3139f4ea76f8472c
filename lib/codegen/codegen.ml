(** Lowering optimized SIR to ITL.

    Register allocation is virtual: each register-resident SIR variable
    gets one register per activation frame, and expression evaluation uses
    fresh temporaries, modelling IA-64's large stacked register file.  The
    frame's register count is reported for RSE-pressure accounting.

    Speculation marks become load kinds: the load on the right-hand side of
    a [Madv] statement becomes ld.a, of a [Mchk] statement ld.c (same
    destination register as the ld.a, which is how the ALAT ties them
    together), of a [Mcspec] statement ld.s, and of a [Msa] statement
    ld.sa (control+data speculative). *)

open Spec_ir

(* One environment serves every function of a program.  Original
   variable [v] has register [reg.(v) - base] in the current function
   when that is not negative.  Each function's [base] lies above every
   value an earlier function stored, so moving on to the next function
   resets the map without touching it. *)
type env = {
  prog : Sir.prog;
  reg : int array;                   (* orig var id -> base + register *)
  mutable base : int;
  mutable next_reg : int;
  mutable buf : Itl.insn list;       (* reversed *)
}

let fresh env =
  let r = env.next_reg in
  env.next_reg <- r + 1;
  r

(* registers are numbered in order of first use *)
let reg_of_var env vid =
  let ov = (Symtab.var env.prog.Sir.syms vid).Symtab.vorig in
  let r = env.reg.(ov) - env.base in
  if r >= 0 then r
  else begin
    env.reg.(ov) <- env.base + env.next_reg;
    fresh env
  end

let emit env i = env.buf <- i :: env.buf

(* Lower an expression; [lkind] overrides the kind of the toplevel load
   when the enclosing statement carries a speculation mark. *)
let rec lower_expr ?(lkind = Itl.Lnorm) ?dst env (e : Sir.expr) : int =
  let syms = env.prog.Sir.syms in
  match e with
  | Sir.Const c ->
    let d = match dst with Some d -> d | None -> fresh env in
    emit env (Itl.Movi (d, c));
    d
  | Sir.Lod v ->
    if Symtab.is_mem syms v then begin
      let a = fresh env in
      emit env (Itl.Lea (a, (Symtab.orig syms v).Symtab.vid));
      let d = match dst with Some d -> d | None -> fresh env in
      let fp = Types.is_fp (Symtab.orig syms v).Symtab.vty in
      emit env (Itl.Ld { dst = d; addr = a; fp; kind = lkind });
      d
    end
    else begin
      let r = reg_of_var env v in
      match dst with
      | Some d when d <> r -> emit env (Itl.Mov (d, r)); d
      | _ -> r
    end
  | Sir.Ilod (ty, a, _site) ->
    let ra = lower_expr env a in
    let d = match dst with Some d -> d | None -> fresh env in
    emit env (Itl.Ld { dst = d; addr = ra; fp = Types.is_fp ty; kind = lkind });
    d
  | Sir.Lda v ->
    let d = match dst with Some d -> d | None -> fresh env in
    emit env (Itl.Lea (d, (Symtab.orig syms v).Symtab.vid));
    d
  | Sir.Unop (op, ty, x) ->
    let rx = lower_expr env x in
    let d = match dst with Some d -> d | None -> fresh env in
    emit env (Itl.Un (op, Types.is_fp ty, d, rx));
    d
  | Sir.Binop (op, ty, a, b) ->
    let ra = lower_expr env a in
    let rb = lower_expr env b in
    let d = match dst with Some d -> d | None -> fresh env in
    let fp =
      match op with
      | Sir.Lt | Sir.Le | Sir.Gt | Sir.Ge | Sir.Eq | Sir.Ne ->
        Types.is_fp (Sir.expr_ty syms a)
      | _ -> Types.is_fp ty
    in
    emit env (Itl.Alu (op, fp, d, ra, rb));
    d

let lower_stmt env (s : Sir.stmt) =
  let syms = env.prog.Sir.syms in
  let lkind =
    match s.Sir.mark with
    | Sir.Mnone -> Itl.Lnorm
    | Sir.Madv -> Itl.Ladv
    | Sir.Mchk -> Itl.Lchk
    | Sir.Mcspec -> Itl.Lspec
    | Sir.Msa -> Itl.Lsa
  in
  match s.Sir.kind with
  | Sir.Snop -> ()
  | Sir.Stid (v, e) ->
    if Symtab.is_mem syms v then begin
      let r = lower_expr ~lkind env e in
      let a = fresh env in
      emit env (Itl.Lea (a, (Symtab.orig syms v).Symtab.vid));
      let fp = Types.is_fp (Symtab.orig syms v).Symtab.vty in
      emit env (Itl.St { src = r; addr = a; fp })
    end
    else
      ignore (lower_expr ~lkind ~dst:(reg_of_var env v) env e : int)
  | Sir.Istr (ty, a, e, _site) ->
    let ra = lower_expr env a in
    let rv = lower_expr env e in
    emit env (Itl.St { src = rv; addr = ra; fp = Types.is_fp ty })
  | Sir.Call { callee; args; ret; csite } ->
    let argr = List.map (fun e -> lower_expr env e) args in
    let retr = Option.map (reg_of_var env) ret in
    emit env (Itl.Call { callee; args = argr; ret = retr; site = csite })

let lower_func env (f : Sir.func) : Itl.mfunc =
  env.base <- env.base + env.next_reg;
  env.next_reg <- 0;
  let formals = List.map (reg_of_var env) f.Sir.fformals in
  let n = Sir.n_blocks f in
  let blocks =
    Array.init n (fun _ -> { Itl.insns = []; Itl.mterm = Itl.Tret None })
  in
  for bid = 0 to n - 1 do
    let b = Sir.block f bid in
    env.buf <- [];
    List.iter (lower_stmt env) b.Sir.stmts;
    let term =
      match b.Sir.term with
      | Sir.Tgoto t -> Itl.Tbr t
      | Sir.Tcond (e, t, e') ->
        let r = lower_expr env e in
        Itl.Tbc (r, t, e')
      | Sir.Tret None -> Itl.Tret None
      | Sir.Tret (Some e) ->
        let r = lower_expr env e in
        Itl.Tret (Some r)
    in
    blocks.(bid).Itl.insns <- List.rev env.buf;
    blocks.(bid).Itl.mterm <- term
  done;
  { Itl.mf_name = f.Sir.fname; Itl.mf_formals = formals;
    Itl.mf_blocks = blocks; Itl.mf_nregs = env.next_reg }

(** Lower a whole program.  The SIR program must be out of SSA form. *)
let lower (prog : Sir.prog) : Itl.mprog =
  let funcs = Hashtbl.create 16 in
  let nvars = Symtab.count prog.Sir.syms in
  let env =
    { prog; reg = Array.make nvars (-1); base = 0; next_reg = 0; buf = [] }
  in
  Sir.iter_funcs
    (fun f -> Hashtbl.replace funcs f.Sir.fname (lower_func env f))
    prog;
  { Itl.mp_funcs = funcs; Itl.mp_order = prog.Sir.func_order;
    Itl.mp_sir = prog }

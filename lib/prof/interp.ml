(** The resolved form of SIR and the result types shared by the
    executors.

    {!compile} resolves each [Sir.func] once, ahead of execution:

    - register-resident variables get dense per-frame slots (the slot
      table is computed once per function), typed int or float;
    - memory-resident locals get dense address slots;
    - [Symtab.orig] / [is_mem] / [Types.is_fp] are resolved at compile
      time, so no symbol-table access is left for execution;
    - expressions become int-typed and float-typed node trees;
    - statement dispatch (check-load vs plain assign, advanced-load
      arming, builtin vs user call) is decided here rather than
      re-matched per execution.

    This module executes nothing.  {!Vmcode} lowers the resolved form
    to the bytecode that {!Vm} runs, and {!Interp_ref}, the semantic
    oracle, walks the SIR tree directly.  Both report through
    {!result} and {!counters}, and the differential suites in
    [test/test_engines.ml] and [test/test_fuzz.ml] hold the vm to the
    oracle's output, return value and counters. *)

open Spec_ir

type value = Vint of int | Vflt of float

exception Runtime_error of string

let error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

let as_int = function
  | Vint i -> i
  | Vflt f -> error "expected int value, got float %g" f

let as_flt = function
  | Vflt f -> f
  | Vint i -> error "expected float value, got int %d" i

type counters = {
  mutable steps : int;
  mutable mem_loads : int;
  mutable mem_stores : int;
  mutable branches : int;
  mutable calls : int;
  mutable check_stmts : int;
      (** executions of ld.c-marked statements; their reloads are counted
          in [mem_loads] too, but cost nothing on the machine when the
          ALAT check succeeds *)
  mutable check_reloads : int;
      (** ld.c executions whose ALAT entry was gone (a real intervening
          alias, or injected interference) and had to reload *)
  mutable deopts : int;
      (** failed checks recovered by deoptimization instead of reload:
          the executor abandoned the optimized frame and finished the
          function in its unoptimized body *)
}

type result = {
  ret : value;
  output : string;
  counters : counters;
}

(* ------------------------------------------------------------------ *)
(* Compiled representation                                             *)
(* ------------------------------------------------------------------ *)

(** Resolved reference to a memory-resident variable's address. *)
type vref =
  | Rglob of int          (* original vid; address via the globals table *)
  | Rslot of int          (* frame address-slot of a memory-resident local *)
  | Rnone of string       (* no stack slot: runtime error with var name *)

(** Int-typed and float-typed compiled expressions.  Type mismatches the
    tree-walking oracle would discover dynamically ([as_int] on a float)
    are compiled into [Iof_f]/[Fof_i] nodes that evaluate the wrongly
    typed subtree and raise the same [Runtime_error]. *)
type iexpr =
  | Iconst of int
  | Ireg of int                                  (* register slot *)
  | Ildv of { vr : vref; vid : int }             (* direct load, int mem var *)
  | Iilod of { a : iexpr; site : int; spec : bool;
               which : [ `Site of int | `Var of int ] }
  | Ilda of vref
  | Ineg of iexpr
  | Ilnot of iexpr
  | If2i of fexpr
  | Ibin of Sir.binop * iexpr * iexpr            (* int arithmetic *)
  | Icmp_i of Sir.binop * iexpr * iexpr
  | Icmp_f of Sir.binop * fexpr * fexpr
  | Iof_f of fexpr                               (* as_int of a float value *)

and fexpr =
  | Fconst of float
  | Freg of int
  | Fldv of { vr : vref; vid : int }             (* direct load, fp mem var *)
  | Filod of { a : iexpr; site : int; spec : bool;
               which : [ `Site of int | `Var of int ] }
  | Fneg of fexpr
  | Fi2f of iexpr
  | Fbin of Sir.binop * fexpr * fexpr            (* fp add/sub/mul/div *)
  | Fof_i of iexpr                               (* as_flt of an int value *)

(** Either-typed expression, for call arguments and return expressions. *)
type aexpr = Ai of iexpr | Af of fexpr

(** Advanced-load (ld.a / ld.sa) ALAT arming, resolved at compile time. *)
type arm =
  | Arm_none
  | Arm_ilod of { tvid : int; a : iexpr }   (* re-evaluates the address *)
  | Arm_var of { tvid : int; vr : vref }

(** A check statement's deoptimization descriptor, resolved against the
    function's register slots: on a failed check (when the run supplies a
    recovery plan) the listed slots are read out of the frame and handed
    to {!Spec_safety.Deopt.deoptimize} as the continuation's seed
    state. *)
type cdeopt = {
  d_sid : int;                        (* lowering-era target statement id *)
  d_vars : (int * int * bool) array;  (* (orig vid, register slot, is_fp) *)
}

type cstmt =
  | CSnop
  | CSseti of { slot : int; e : iexpr; arm : arm }
  | CSsetf of { slot : int; e : fexpr; arm : arm }
  | CSstorev_i of { vr : vref; e : iexpr }   (* direct store to int mem var *)
  | CSstorev_f of { vr : vref; e : fexpr }
  | CSchk_ilod of { tvid : int; slot : int; fp : bool; a : iexpr; site : int;
                    which : [ `Site of int | `Var of int ];
                    dd : cdeopt option }
  | CSchk_lod of { tvid : int; slot : int; fp : bool; vr : vref;
                   dd : cdeopt option }
  | CSistr_i of { a : iexpr; e : iexpr; site : int }
  | CSistr_f of { a : iexpr; e : fexpr; site : int }
  | CScall of { target : ctarget; args : aexpr array;
                ret_slot : int; ret_fp : bool; csite : int }
  | CSerr of { args : aexpr array; msg : string }
      (* ill-formed builtin call: evaluate args, count the call, raise *)

and ctarget =
  | Tmalloc | Tprint_int | Tprint_flt | Tseed | Trnd
  | Tuser of int                        (* index into compiled functions *)
  | Tunknown of string                  (* Sir.find_func failure, deferred *)

type cterm =
  | CTgoto of int
  | CTcond of iexpr * int * int
  | CTret_none
  | CTret of aexpr

type cblock = {
  cb_phis : bool;                       (* phis present: error if executed *)
  cb_stmts : cstmt array;
  cb_chk : bool array;                  (* per-stmt: counts as check stmt *)
  cb_term : cterm;
}

type formal =
  | Fm_reg of { slot : int; fp : bool }
  | Fm_mem of { aslot : int; vid : int; bytes : int; fp : bool }

type cfunc = {
  cname : string;
  cblocks : cblock array;
  n_slots : int;
  n_addr : int;
  mem_locals : (int * int * int) array; (* (addr slot, vid, bytes) *)
  formals : formal array;
}

type compiled = {
  cprog : Sir.prog;
  cfuncs : cfunc array;
  main_ix : int;
}

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

type fenv = {
  prog : Sir.prog;
  reg_slots : (int, int) Hashtbl.t;     (* orig vid -> register slot *)
  mutable next_reg : int;
  addr_slots : (int, int) Hashtbl.t;    (* orig vid -> address slot *)
}

let cell_bytes v = max Types.cell_size v.Symtab.vsize

let orig_of env vid = Symtab.orig env.prog.Sir.syms vid

let is_fp_var env vid = Types.is_fp (orig_of env vid).Symtab.vty

let reg_slot env vid =
  let ov = (orig_of env vid).Symtab.vid in
  match Hashtbl.find_opt env.reg_slots ov with
  | Some s -> s
  | None ->
    let s = env.next_reg in
    env.next_reg <- s + 1;
    Hashtbl.replace env.reg_slots ov s;
    s

let vref_of env vid =
  let v = orig_of env vid in
  match v.Symtab.vstorage with
  | Symtab.Sglobal -> Rglob v.Symtab.vid
  | _ ->
    (match Hashtbl.find_opt env.addr_slots v.Symtab.vid with
     | Some s -> Rslot s
     | None -> Rnone v.Symtab.vname)

let is_float_arith op = function
  | Types.Tflt ->
    (match op with
     | Sir.Add | Sir.Sub | Sir.Mul | Sir.Div -> true
     | _ -> false)
  | _ -> false

let is_cmp = function
  | Sir.Lt | Sir.Le | Sir.Gt | Sir.Ge | Sir.Eq | Sir.Ne -> true
  | _ -> false

let rec compile_i env ~spec (e : Sir.expr) : iexpr =
  match e with
  | Sir.Const (Sir.Cint i) -> Iconst i
  | Sir.Const (Sir.Cflt _) -> Iof_f (compile_f env ~spec e)
  | Sir.Lod vid ->
    if is_fp_var env vid then Iof_f (compile_f env ~spec e)
    else if Symtab.is_mem env.prog.Sir.syms vid then
      Ildv { vr = vref_of env vid; vid = (orig_of env vid).Symtab.vid }
    else Ireg (reg_slot env vid)
  | Sir.Ilod (ty, a, site) ->
    if Types.is_fp ty then Iof_f (compile_f env ~spec e)
    else Iilod { a = compile_i env ~spec a; site; spec; which = `Site site }
  | Sir.Lda vid -> Ilda (vref_of env vid)
  | Sir.Unop (Sir.Neg, Types.Tflt, _) -> Iof_f (compile_f env ~spec e)
  | Sir.Unop (Sir.Neg, _, x) -> Ineg (compile_i env ~spec x)
  | Sir.Unop (Sir.Lnot, _, x) -> Ilnot (compile_i env ~spec x)
  | Sir.Unop (Sir.I2f, _, _) -> Iof_f (compile_f env ~spec e)
  | Sir.Unop (Sir.F2i, _, x) -> If2i (compile_f env ~spec x)
  | Sir.Binop (op, ty, a, b) ->
    if is_cmp op then begin
      let ta = Types.is_fp (Sir.expr_ty env.prog.Sir.syms a) in
      let tb = Types.is_fp (Sir.expr_ty env.prog.Sir.syms b) in
      if ta || tb then
        let fa = if ta then compile_f env ~spec a
          else Fi2f (compile_i env ~spec a) in
        let fb = if tb then compile_f env ~spec b
          else Fi2f (compile_i env ~spec b) in
        Icmp_f (op, fa, fb)
      else Icmp_i (op, compile_i env ~spec a, compile_i env ~spec b)
    end
    else if is_float_arith op ty then Iof_f (compile_f env ~spec e)
    else Ibin (op, compile_i env ~spec a, compile_i env ~spec b)

and compile_f env ~spec (e : Sir.expr) : fexpr =
  match e with
  | Sir.Const (Sir.Cflt f) -> Fconst f
  | Sir.Const (Sir.Cint _) -> Fof_i (compile_i env ~spec e)
  | Sir.Lod vid ->
    if not (is_fp_var env vid) then Fof_i (compile_i env ~spec e)
    else if Symtab.is_mem env.prog.Sir.syms vid then
      Fldv { vr = vref_of env vid; vid = (orig_of env vid).Symtab.vid }
    else Freg (reg_slot env vid)
  | Sir.Ilod (ty, a, site) ->
    if not (Types.is_fp ty) then Fof_i (compile_i env ~spec e)
    else Filod { a = compile_i env ~spec a; site; spec; which = `Site site }
  | Sir.Lda _ -> Fof_i (compile_i env ~spec e)
  | Sir.Unop (Sir.Neg, Types.Tflt, x) -> Fneg (compile_f env ~spec x)
  | Sir.Unop (Sir.I2f, _, x) -> Fi2f (compile_i env ~spec x)
  | Sir.Unop ((Sir.Neg | Sir.Lnot | Sir.F2i), _, _) ->
    Fof_i (compile_i env ~spec e)
  | Sir.Binop (op, ty, a, b) ->
    if is_float_arith op ty && not (is_cmp op) then
      Fbin (op, compile_f env ~spec a, compile_f env ~spec b)
    else Fof_i (compile_i env ~spec e)

let compile_a env ~spec (e : Sir.expr) : aexpr =
  if Types.is_fp (Sir.expr_ty env.prog.Sir.syms e) then
    Af (compile_f env ~spec e)
  else Ai (compile_i env ~spec e)

(* Resolve a check's deopt descriptor against this function's register
   slots.  Descriptor variables are lowering-era originals; pinning in
   cleanup keeps their assignments alive, so the slots hold live
   values. *)
let cdeopt_of env (s : Sir.stmt) : cdeopt option =
  match s.Sir.deopt with
  | None -> None
  | Some d ->
    Some { d_sid = d.Sir.dp_target;
           d_vars =
             Array.of_list
               (List.map
                  (fun v -> (v, reg_slot env v, is_fp_var env v))
                  d.Sir.dp_vars) }

let compile_stmt env ~func_ix (s : Sir.stmt) : cstmt =
  let syms = env.prog.Sir.syms in
  let spec = s.Sir.mark = Sir.Mcspec || s.Sir.mark = Sir.Msa in
  match s.Sir.kind with
  | Sir.Snop -> CSnop
  (* a check load: reload only when the armed entry was invalidated by an
     intervening aliasing store (IA-64 ld.c semantics) *)
  | Sir.Stid (vid, Sir.Ilod (ty, a, site))
    when s.Sir.mark = Sir.Mchk && not (Symtab.is_mem syms vid) ->
    CSchk_ilod { tvid = (orig_of env vid).Symtab.vid;
                 slot = reg_slot env vid; fp = Types.is_fp ty;
                 a = compile_i env ~spec a; site; which = `Site site;
                 dd = cdeopt_of env s }
  (* same, for a check of a direct (global / address-taken) variable load *)
  | Sir.Stid (vid, Sir.Lod g)
    when s.Sir.mark = Sir.Mchk
         && (not (Symtab.is_mem syms vid))
         && Symtab.is_mem syms g ->
    CSchk_lod { tvid = (orig_of env vid).Symtab.vid;
                slot = reg_slot env vid; fp = is_fp_var env g;
                vr = vref_of env g; dd = cdeopt_of env s }
  | Sir.Stid (vid, e) ->
    if Symtab.is_mem syms vid then begin
      if is_fp_var env vid then
        CSstorev_f { vr = vref_of env vid; e = compile_f env ~spec e }
      else CSstorev_i { vr = vref_of env vid; e = compile_i env ~spec e }
    end
    else begin
      let arm =
        match s.Sir.mark, e with
        | (Sir.Madv | Sir.Msa), Sir.Ilod (_, a, _) ->
          Arm_ilod { tvid = (orig_of env vid).Symtab.vid;
                     a = compile_i env ~spec a }
        | (Sir.Madv | Sir.Msa), Sir.Lod g when Symtab.is_mem syms g ->
          Arm_var { tvid = (orig_of env vid).Symtab.vid; vr = vref_of env g }
        | _ -> Arm_none
      in
      let slot = reg_slot env vid in
      if is_fp_var env vid then
        CSsetf { slot; e = compile_f env ~spec e; arm }
      else CSseti { slot; e = compile_i env ~spec e; arm }
    end
  | Sir.Istr (ty, a, e, site) ->
    if Types.is_fp ty then
      CSistr_f { a = compile_i env ~spec a; e = compile_f env ~spec e; site }
    else CSistr_i { a = compile_i env ~spec a; e = compile_i env ~spec e; site }
  | Sir.Call { callee; args; ret; csite } ->
    let any_args () = Array.of_list (List.map (compile_a env ~spec) args) in
    let ret_slot, ret_fp =
      match ret with
      | None -> -1, false
      | Some r -> reg_slot env r, is_fp_var env r
    in
    let builtin_1i name =
      (* builtins taking one int argument *)
      match args with
      | [ a ] when not (Types.is_fp (Sir.expr_ty syms a)) ->
        Some (compile_i env ~spec a)
      | _ -> ignore name; None
    in
    let err msg = CSerr { args = any_args (); msg } in
    (match callee with
     | "malloc" ->
       (match builtin_1i "malloc" with
        | Some a -> CScall { target = Tmalloc; args = [| Ai a |];
                             ret_slot; ret_fp; csite }
        | None -> err "malloc expects one int")
     | "print_int" ->
       (match builtin_1i "print_int" with
        | Some a -> CScall { target = Tprint_int; args = [| Ai a |];
                             ret_slot; ret_fp; csite }
        | None -> err "print_int expects one int")
     | "print_flt" ->
       (match args with
        | [ a ] when Types.is_fp (Sir.expr_ty syms a) ->
          CScall { target = Tprint_flt; args = [| Af (compile_f env ~spec a) |];
                   ret_slot; ret_fp; csite }
        | _ -> err "print_flt expects one float")
     | "seed" ->
       (match builtin_1i "seed" with
        | Some a -> CScall { target = Tseed; args = [| Ai a |];
                             ret_slot; ret_fp; csite }
        | None -> err "seed expects one int")
     | "rnd" ->
       (match builtin_1i "rnd" with
        | Some a -> CScall { target = Trnd; args = [| Ai a |];
                             ret_slot; ret_fp; csite }
        | None -> err "rnd expects one int")
     | name ->
       (match func_ix name with
        | None ->
          CScall { target = Tunknown name; args = any_args ();
                   ret_slot; ret_fp; csite }
        | Some ix ->
          (* arguments are compiled at the callee's declared formal types
             (when arities match), so the invoke protocol can pass them in
             unboxed per-kind arrays *)
          let formals = (Sir.find_func env.prog name).Sir.fformals in
          let cargs =
            if List.length formals <> List.length args then any_args ()
            else
              Array.of_list
                (List.map2
                   (fun fvid a ->
                     if is_fp_var env fvid then Af (compile_f env ~spec a)
                     else Ai (compile_i env ~spec a))
                   formals args)
          in
          CScall { target = Tuser ix; args = cargs; ret_slot; ret_fp; csite }))

let compile_func (prog : Sir.prog) ~func_ix (f : Sir.func) : cfunc =
  let env = { prog; reg_slots = Hashtbl.create 32;
              next_reg = 0; addr_slots = Hashtbl.create 8 } in
  let syms = prog.Sir.syms in
  (* address slots for memory-resident locals and formals, in the order the
     tree-walking oracle pushes them (locals first, then formals) *)
  let mem_locals =
    List.filter_map
      (fun vid ->
        if Symtab.is_mem syms vid then begin
          let slot = Hashtbl.length env.addr_slots in
          Hashtbl.replace env.addr_slots vid slot;
          Some (slot, vid, cell_bytes (Symtab.var syms vid))
        end
        else None)
      f.Sir.flocals
    |> Array.of_list
  in
  let formals =
    List.map
      (fun vid ->
        if Symtab.is_mem syms vid then begin
          let slot = Hashtbl.length env.addr_slots in
          Hashtbl.replace env.addr_slots vid slot;
          Fm_mem { aslot = slot; vid; bytes = cell_bytes (Symtab.var syms vid);
                   fp = is_fp_var env vid }
        end
        else Fm_reg { slot = reg_slot env vid; fp = is_fp_var env vid })
      f.Sir.fformals
    |> Array.of_list
  in
  let n = Sir.n_blocks f in
  let cblocks =
    Array.init n (fun bid ->
        let b = Sir.block f bid in
        let stmts = Array.of_list b.Sir.stmts in
        let cb_stmts = Array.map (compile_stmt env ~func_ix) stmts in
        let cb_chk = Array.map (fun s -> s.Sir.mark = Sir.Mchk) stmts in
        let cb_term =
          match b.Sir.term with
          | Sir.Tgoto t -> CTgoto t
          | Sir.Tcond (c, t, e) -> CTcond (compile_i env ~spec:false c, t, e)
          | Sir.Tret None -> CTret_none
          | Sir.Tret (Some e) -> CTret (compile_a env ~spec:false e)
        in
        { cb_phis = b.Sir.phis <> []; cb_stmts; cb_chk; cb_term })
  in
  { cname = f.Sir.fname; cblocks; n_slots = env.next_reg;
    n_addr = Hashtbl.length env.addr_slots; mem_locals; formals }

(** Compile a whole (non-SSA) program.  Cheap relative to any execution:
    one pass over the statements. *)
let compile (p : Sir.prog) : compiled =
  let order = p.Sir.func_order in
  let ix_of = Hashtbl.create 16 in
  List.iteri (fun i name -> Hashtbl.replace ix_of name i) order;
  let func_ix name = Hashtbl.find_opt ix_of name in
  let cfuncs =
    Array.of_list
      (List.map
         (fun name -> compile_func p ~func_ix (Sir.find_func p name))
         order)
  in
  let main_ix =
    match func_ix "main" with Some i -> i | None -> -1
  in
  { cprog = p; cfuncs; main_ix }

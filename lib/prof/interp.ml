(** Pre-compiled execution engine for SIR.

    The semantic oracle of the project ({!Interp_ref}) walks the SIR tree
    directly, paying a symbol-table traversal ([Symtab.orig], [is_mem])
    and a hash-table probe on every variable read and write.  This module
    is the production engine: before executing, it *compiles* each
    [Sir.func] into a resolved form

    - register-resident variables get dense per-frame slots in unboxed
      [int]/[float] arrays (the slot table is computed once per function);
    - memory-resident locals get dense address slots;
    - [Symtab.orig] / [is_mem] / [Types.is_fp] are resolved at compile
      time — no symbol-table access happens during execution;
    - expressions are compiled into int-typed and float-typed node trees,
      so evaluation never allocates boxed values;
    - statement dispatch (check-load vs plain assign, advanced-load
      arming, builtin vs user call) is decided at compile time rather
      than re-matched per execution.

    The engine carries no instrumentation: profiling runs execute
    profile-mode bytecode on the vm ({!Vmcode.profile}).
    Observable behaviour — output, return value, and all counters — is
    identical to {!Interp_ref}; the differential suite in
    [test/test_engines.ml] enforces this for every workload under every
    pipeline variant. *)

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
          the engine abandoned the optimized frame and finished the
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
    tree-walking engine would discover dynamically ([as_int] on a float)
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

(** A check statement's deoptimization descriptor, resolved against this
    engine's register slots: on a failed check (when the run supplies a
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
     tree-walking engine pushes them (locals first, then formals) *)
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

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type state = {
  comp : compiled;
  mem : Memory.t;
  ctrs : counters;
  out : Buffer.t;
  globals : int array;   (* orig vid -> data-segment address, -1 if none *)
  mutable rng : int;
  mutable fuel : int;
  (* semantic ALAT: advanced loads arm an entry (frame serial, temp) ->
     address; stores invalidate matching addresses; a check reload is
     skipped when its entry survives.  No capacity limit (capacity
     effects belong to the machine model, not the language semantics),
     but an entry lives only as long as its frame.  Injected
     interference (stress runs only) counts time in ALAT operations,
     since the interpreter has no cycle clock. *)
  alat : Sem_alat.t;
  (* deopt recovery plan: failed checks carrying a descriptor finish the
     function in its unoptimized body instead of reloading *)
  recover : Spec_safety.Deopt.plan option;
}

type frame = {
  cf : cfunc;
  serial : int;
  ints : int array;      (* int/pointer register slots *)
  flts : float array;    (* fp register slots *)
  addrs : int array;     (* memory-resident local -> address *)
}

(** Raised by a deoptimizing check: the continuation already executed
    the rest of the function, so the carried value is the function's
    return value; caught in [exec_func] before the frame pops. *)
exception Deopt_return of value

let no_addrs : int array = [||]

let spend st =
  st.ctrs.steps <- st.ctrs.steps + 1;
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then error "out of fuel (infinite loop?)"

let resolve_addr st (fr : frame) = function
  | Rglob vid ->
    let a = st.globals.(vid) in
    if a >= 0 then a else Memory.global_addr st.mem vid
  | Rslot s -> fr.addrs.(s)
  | Rnone name -> error "no stack slot for %s" name

let rec eval_i st (fr : frame) (e : iexpr) : int =
  match e with
  | Iconst i -> i
  | Ireg s -> fr.ints.(s)
  | Ildv { vr; _ } ->
    let addr = resolve_addr st fr vr in
    st.ctrs.mem_loads <- st.ctrs.mem_loads + 1;
    Memory.load_int st.mem addr
  | Iilod { a; spec; _ } ->
    let addr = eval_i st fr a in
    st.ctrs.mem_loads <- st.ctrs.mem_loads + 1;
    if spec then Memory.load_int_spec st.mem addr
    else Memory.load_int st.mem addr
  | Ilda vr -> resolve_addr st fr vr
  | Ineg x -> - (eval_i st fr x)
  | Ilnot x -> if eval_i st fr x = 0 then 1 else 0
  | If2i x -> int_of_float (eval_f st fr x)
  | Ibin (op, a, b) ->
    let va = eval_i st fr a in
    let vb = eval_i st fr b in
    (match op with
     | Sir.Add -> va + vb
     | Sir.Sub -> va - vb
     | Sir.Mul -> va * vb
     | Sir.Div ->
       if vb = 0 then error "integer division by zero" else va / vb
     | Sir.Rem ->
       if vb = 0 then error "integer remainder by zero" else va mod vb
     | Sir.Band -> va land vb
     | Sir.Bor -> va lor vb
     | Sir.Bxor -> va lxor vb
     | Sir.Shl -> va lsl (vb land 63)
     | Sir.Shr -> va asr (vb land 63)
     | _ -> assert false)
  | Icmp_i (op, a, b) ->
    let va = eval_i st fr a in
    let vb = eval_i st fr b in
    let r =
      match op with
      | Sir.Lt -> va < vb | Sir.Le -> va <= vb
      | Sir.Gt -> va > vb | Sir.Ge -> va >= vb
      | Sir.Eq -> va = vb | Sir.Ne -> va <> vb
      | _ -> assert false
    in
    if r then 1 else 0
  | Icmp_f (op, a, b) ->
    let va = eval_f st fr a in
    let vb = eval_f st fr b in
    (* [compare], not IEEE operators: the tree-walking engine uses the
       polymorphic comparison, whose NaN ordering we must reproduce *)
    let cmp = compare va vb in
    let r =
      match op with
      | Sir.Lt -> cmp < 0 | Sir.Le -> cmp <= 0
      | Sir.Gt -> cmp > 0 | Sir.Ge -> cmp >= 0
      | Sir.Eq -> cmp = 0 | Sir.Ne -> cmp <> 0
      | _ -> assert false
    in
    if r then 1 else 0
  | Iof_f x ->
    let f = eval_f st fr x in
    error "expected int value, got float %g" f

and eval_f st (fr : frame) (e : fexpr) : float =
  match e with
  | Fconst f -> f
  | Freg s -> fr.flts.(s)
  | Fldv { vr; _ } ->
    let addr = resolve_addr st fr vr in
    st.ctrs.mem_loads <- st.ctrs.mem_loads + 1;
    Memory.load_flt st.mem addr
  | Filod { a; spec; _ } ->
    let addr = eval_i st fr a in
    st.ctrs.mem_loads <- st.ctrs.mem_loads + 1;
    if spec then Memory.load_flt_spec st.mem addr
    else Memory.load_flt st.mem addr
  | Fneg x -> -. (eval_f st fr x)
  | Fi2f x -> float_of_int (eval_i st fr x)
  | Fbin (op, a, b) ->
    let va = eval_f st fr a in
    let vb = eval_f st fr b in
    (match op with
     | Sir.Add -> va +. vb
     | Sir.Sub -> va -. vb
     | Sir.Mul -> va *. vb
     | Sir.Div -> va /. vb     (* IEEE semantics: inf/nan allowed *)
     | _ -> assert false)
  | Fof_i x ->
    let i = eval_i st fr x in
    error "expected float value, got int %d" i

let eval_a st fr = function
  | Ai e -> Vint (eval_i st fr e)
  | Af e -> Vflt (eval_f st fr e)

let no_flts : float array = [||]

let set_ret fr slot fp v =
  if slot >= 0 then begin
    if fp then error "expected float value, got int %d" v
    else fr.ints.(slot) <- v
  end

let rec exec_stmt st (fr : frame) (s : cstmt) : unit =
  match s with
  | CSnop -> ()
  | CSseti { slot; e; arm } ->
    fr.ints.(slot) <- eval_i st fr e;
    exec_arm st fr arm
  | CSsetf { slot; e; arm } ->
    fr.flts.(slot) <- eval_f st fr e;
    exec_arm st fr arm
  | CSstorev_i { vr; e } ->
    let v = eval_i st fr e in
    let addr = resolve_addr st fr vr in
    st.ctrs.mem_stores <- st.ctrs.mem_stores + 1;
    Sem_alat.invalidate st.alat addr;
    Memory.store_int st.mem addr v
  | CSstorev_f { vr; e } ->
    let v = eval_f st fr e in
    let addr = resolve_addr st fr vr in
    st.ctrs.mem_stores <- st.ctrs.mem_stores + 1;
    Sem_alat.invalidate st.alat addr;
    Memory.store_flt st.mem addr v
  | CSchk_ilod { tvid; slot; fp; a; dd; _ } ->
    let addr = eval_i st fr a in
    if not (Sem_alat.check st.alat ~serial:fr.serial ~tag:tvid addr) then begin
      match st.recover, dd with
      | Some pl, Some d -> do_deopt st fr pl d
      | _ ->
        st.ctrs.check_reloads <- st.ctrs.check_reloads + 1;
        st.ctrs.mem_loads <- st.ctrs.mem_loads + 1;
        if fp then fr.flts.(slot) <- Memory.load_flt st.mem addr
        else fr.ints.(slot) <- Memory.load_int st.mem addr;
        Sem_alat.arm st.alat ~serial:fr.serial ~tag:tvid addr
    end
  | CSchk_lod { tvid; slot; fp; vr; dd } ->
    let addr = resolve_addr st fr vr in
    if not (Sem_alat.check st.alat ~serial:fr.serial ~tag:tvid addr) then begin
      match st.recover, dd with
      | Some pl, Some d -> do_deopt st fr pl d
      | _ ->
        st.ctrs.check_reloads <- st.ctrs.check_reloads + 1;
        st.ctrs.mem_loads <- st.ctrs.mem_loads + 1;
        if fp then fr.flts.(slot) <- Memory.load_flt st.mem addr
        else fr.ints.(slot) <- Memory.load_int st.mem addr;
        Sem_alat.arm st.alat ~serial:fr.serial ~tag:tvid addr
    end
  | CSistr_i { a; e; _ } ->
    let addr = eval_i st fr a in
    let v = eval_i st fr e in
    st.ctrs.mem_stores <- st.ctrs.mem_stores + 1;
    Sem_alat.invalidate st.alat addr;
    Memory.store_int st.mem addr v
  | CSistr_f { a; e; _ } ->
    let addr = eval_i st fr a in
    let v = eval_f st fr e in
    st.ctrs.mem_stores <- st.ctrs.mem_stores + 1;
    Sem_alat.invalidate st.alat addr;
    Memory.store_flt st.mem addr v
  | CScall { target; args; ret_slot; ret_fp; csite } ->
    exec_call st fr ~target ~args ~ret_slot ~ret_fp ~csite
  | CSerr { args; msg } ->
    Array.iter (fun a -> ignore (eval_a st fr a : value)) args;
    st.ctrs.calls <- st.ctrs.calls + 1;
    error "%s" msg

(* Deopt recovery: read the descriptor's slots out of the optimized
   frame, run the unoptimized continuation (all effects through
   [Deopt] callbacks against this engine's state), and unwind to
   [exec_func] with the continuation's return value.  Only counters
   accumulate during the continuation, so the tree and vm engines stay
   counter-identical under recovery. *)
and do_deopt st (fr : frame) (pl : Spec_safety.Deopt.plan) (d : cdeopt)
  : unit =
  let module D = Spec_safety.Deopt in
  st.ctrs.deopts <- st.ctrs.deopts + 1;
  let regs =
    Array.fold_right
      (fun (vid, slot, fp) acc ->
        (vid,
         if fp then D.Vflt fr.flts.(slot) else D.Vint fr.ints.(slot))
        :: acc)
      d.d_vars []
  in
  (* orig vid -> frame address of memory-resident locals and formals *)
  let frame_addr = Hashtbl.create 8 in
  Array.iter
    (fun (slot, vid, _) -> Hashtbl.replace frame_addr vid fr.addrs.(slot))
    fr.cf.mem_locals;
  Array.iter
    (function
      | Fm_mem { aslot; vid; _ } ->
        Hashtbl.replace frame_addr vid fr.addrs.(aslot)
      | Fm_reg _ -> ())
    fr.cf.formals;
  let h =
    { D.h_load =
        (fun ty addr ->
          st.ctrs.mem_loads <- st.ctrs.mem_loads + 1;
          if Types.is_fp ty then D.Vflt (Memory.load_flt st.mem addr)
          else D.Vint (Memory.load_int st.mem addr));
      D.h_store =
        (fun ty addr v ->
          st.ctrs.mem_stores <- st.ctrs.mem_stores + 1;
          Sem_alat.invalidate st.alat addr;
          if Types.is_fp ty then Memory.store_flt st.mem addr (D.as_flt v)
          else Memory.store_int st.mem addr (D.as_int v));
      D.h_addr_of =
        (fun vid ->
          match Hashtbl.find_opt frame_addr vid with
          | Some a -> a
          | None ->
            let a = st.globals.(vid) in
            if a >= 0 then a else Memory.global_addr st.mem vid);
      D.h_spend = (fun () -> spend st);
      D.h_branch =
        (fun () -> st.ctrs.branches <- st.ctrs.branches + 1);
      D.h_call = (fun ~site name argv -> deopt_call st ~site name argv) }
  in
  let ret =
    try D.deoptimize pl h ~fname:fr.cf.cname ~target:d.d_sid ~regs
    with D.Error msg -> raise (Runtime_error msg)
  in
  raise (Deopt_return
           (match ret with D.Vint i -> Vint i | D.Vflt f -> Vflt f))

(* Call dispatch for the deopt continuation: builtins mirror
   [Interp_ref.call] exactly; user calls re-enter this engine's
   (optimized) bodies. *)
and deopt_call st ~site name (argv : Spec_safety.Deopt.value list)
  : Spec_safety.Deopt.value =
  let module D = Spec_safety.Deopt in
  st.ctrs.calls <- st.ctrs.calls + 1;
  match name, argv with
  | "malloc", [ D.Vint bytes ] ->
    D.Vint (Memory.malloc st.mem ~site bytes)
  | "malloc", _ -> raise (Runtime_error "malloc expects one int")
  | "print_int", [ D.Vint i ] ->
    Buffer.add_string st.out (string_of_int i);
    Buffer.add_char st.out '\n';
    D.Vint 0
  | "print_int", _ -> raise (Runtime_error "print_int expects one int")
  | "print_flt", [ D.Vflt f ] ->
    Buffer.add_string st.out (Printf.sprintf "%.6g" f);
    Buffer.add_char st.out '\n';
    D.Vint 0
  | "print_flt", _ -> raise (Runtime_error "print_flt expects one float")
  | "seed", [ D.Vint s ] ->
    st.rng <- s;
    D.Vint 0
  | "seed", _ -> raise (Runtime_error "seed expects one int")
  | "rnd", [ D.Vint m ] ->
    if m <= 0 then raise (Runtime_error "rnd expects a positive bound");
    st.rng <- (st.rng * 0x5851F42D4C957F2D + 0x14057B7EF767814F) land max_int;
    D.Vint ((st.rng lsr 29) mod m)
  | "rnd", _ -> raise (Runtime_error "rnd expects one int")
  | _ ->
    let ix = ref (-1) in
    Array.iteri
      (fun i cf -> if cf.cname = name then ix := i)
      st.comp.cfuncs;
    if !ix < 0 then invalid_arg ("Sir.find_func: no function " ^ name);
    let callee = st.comp.cfuncs.(!ix) in
    let n = List.length argv in
    let ai = if n = 0 then no_addrs else Array.make n 0 in
    let af = if n = 0 then no_flts else Array.make n 0. in
    List.iteri
      (fun k v ->
        let fp =
          if k < Array.length callee.formals then
            match callee.formals.(k) with
            | Fm_reg { fp; _ } | Fm_mem { fp; _ } -> fp
          else false
        in
        try if fp then af.(k) <- D.as_flt v else ai.(k) <- D.as_int v
        with D.Error msg -> raise (Runtime_error msg))
      argv;
    (match exec_func st !ix ai af with
     | Vint i -> D.Vint i
     | Vflt f -> D.Vflt f)

and exec_arm st fr = function
  | Arm_none -> ()
  | Arm_ilod { tvid; a } ->
    (* advanced loads arm the semantic ALAT; the address is re-evaluated,
       as in the tree-walking engine (its side effects included) *)
    (try Sem_alat.arm st.alat ~serial:fr.serial ~tag:tvid (eval_i st fr a)
     with Runtime_error _ -> ())
  | Arm_var { tvid; vr } ->
    Sem_alat.arm st.alat ~serial:fr.serial ~tag:tvid (resolve_addr st fr vr)

and exec_call st fr ~target ~args ~ret_slot ~ret_fp ~csite =
  match target with
  | Tmalloc ->
    let bytes = (match args.(0) with Ai a -> eval_i st fr a | Af _ -> 0) in
    st.ctrs.calls <- st.ctrs.calls + 1;
    set_ret fr ret_slot ret_fp (Memory.malloc st.mem ~site:csite bytes)
  | Tprint_int ->
    let v = (match args.(0) with Ai a -> eval_i st fr a | Af _ -> 0) in
    st.ctrs.calls <- st.ctrs.calls + 1;
    Buffer.add_string st.out (string_of_int v);
    Buffer.add_char st.out '\n';
    set_ret fr ret_slot ret_fp 0
  | Tprint_flt ->
    let v = (match args.(0) with Af a -> eval_f st fr a | Ai _ -> 0.) in
    st.ctrs.calls <- st.ctrs.calls + 1;
    Buffer.add_string st.out (Printf.sprintf "%.6g" v);
    Buffer.add_char st.out '\n';
    set_ret fr ret_slot ret_fp 0
  | Tseed ->
    let v = (match args.(0) with Ai a -> eval_i st fr a | Af _ -> 0) in
    st.ctrs.calls <- st.ctrs.calls + 1;
    st.rng <- v;
    set_ret fr ret_slot ret_fp 0
  | Trnd ->
    let m = (match args.(0) with Ai a -> eval_i st fr a | Af _ -> 0) in
    st.ctrs.calls <- st.ctrs.calls + 1;
    if m <= 0 then error "rnd expects a positive bound";
    st.rng <- (st.rng * 0x5851F42D4C957F2D + 0x14057B7EF767814F) land max_int;
    set_ret fr ret_slot ret_fp ((st.rng lsr 29) mod m)
  | Tuser ix ->
    let n = Array.length args in
    let ai = if n = 0 then no_addrs else Array.make n 0 in
    let af = if n = 0 then no_flts else Array.make n 0. in
    for k = 0 to n - 1 do
      match args.(k) with
      | Ai e -> ai.(k) <- eval_i st fr e
      | Af e -> af.(k) <- eval_f st fr e
    done;
    st.ctrs.calls <- st.ctrs.calls + 1;
    let result = exec_func st ix ai af in
    if ret_slot >= 0 then begin
      if ret_fp then fr.flts.(ret_slot) <- as_flt result
      else fr.ints.(ret_slot) <- as_int result
    end
  | Tunknown name ->
    Array.iter (fun a -> ignore (eval_a st fr a : value)) args;
    st.ctrs.calls <- st.ctrs.calls + 1;
    invalid_arg ("Sir.find_func: no function " ^ name)

and exec_func st ix (ai : int array) (af : float array) : value =
  let cf = st.comp.cfuncs.(ix) in
  let fr =
    { cf; serial = Sem_alat.enter_frame st.alat;
      ints = (if cf.n_slots = 0 then no_addrs else Array.make cf.n_slots 0);
      flts = (if cf.n_slots = 0 then no_flts else Array.make cf.n_slots 0.);
      addrs = (if cf.n_addr = 0 then no_addrs else Array.make cf.n_addr 0) }
  in
  let mark = Memory.stack_mark st.mem in
  (* stack slots for memory-resident locals *)
  Array.iter
    (fun (slot, vid, bytes) ->
      fr.addrs.(slot) <- Memory.push_frame_var st.mem vid bytes)
    cf.mem_locals;
  (* bind formals; address-taken formals spill to their slot *)
  let nf = Array.length cf.formals in
  if nf <> Array.length ai then error "arity mismatch calling %s" cf.cname;
  for k = 0 to nf - 1 do
    match cf.formals.(k) with
    | Fm_reg { slot; fp } ->
      if fp then fr.flts.(slot) <- af.(k) else fr.ints.(slot) <- ai.(k)
    | Fm_mem { aslot; vid; bytes; fp } ->
      let addr = Memory.push_frame_var st.mem vid bytes in
      fr.addrs.(aslot) <- addr;
      if fp then Memory.store_flt st.mem addr af.(k)
      else Memory.store_int st.mem addr ai.(k)
  done;
  let ret =
    try exec_blocks st fr with Deopt_return v -> v
  in
  Sem_alat.exit_frame st.alat fr.serial;
  Memory.pop_frame st.mem mark;
  ret

and exec_blocks st (fr : frame) : value =
  let cf = fr.cf in
  let rec run_block bid : value =
    let b = cf.cblocks.(bid) in
    if b.cb_phis then
      error "interpreter cannot execute SSA-form code (phis present)";
    let stmts = b.cb_stmts in
    let chk = b.cb_chk in
    for k = 0 to Array.length stmts - 1 do
      spend st;
      if chk.(k) then st.ctrs.check_stmts <- st.ctrs.check_stmts + 1;
      exec_stmt st fr stmts.(k)
    done;
    spend st;
    match b.cb_term with
    | CTgoto next ->
      run_block next
    | CTcond (c, t, e) ->
      st.ctrs.branches <- st.ctrs.branches + 1;
      let next = if eval_i st fr c <> 0 then t else e in
      run_block next
    | CTret_none -> Vint 0
    | CTret e -> eval_a st fr e
  in
  run_block Sir.entry_bid

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Run a pre-compiled program.  [faults] attaches injected ALAT interference for stress runs.  [recover]
    supplies a deoptimization plan: failed checks whose statements carry
    descriptors finish their function in the unoptimized body instead of
    reloading. *)
let run_compiled ?(fuel = 200_000_000) ?faults ?recover
    ?(heap_bytes = 24 * 1024 * 1024) (comp : compiled) : result =
  if comp.main_ix < 0 then error "program has no main function";
  let syms = comp.cprog.Sir.syms in
  let mem = Memory.create ~heap_bytes comp.cprog in
  let globals = Array.make (Symtab.count syms) (-1) in
  List.iter
    (fun g -> globals.(g) <- Memory.global_addr mem g)
    comp.cprog.Sir.globals;
  let st =
    { comp; mem;
      ctrs = { steps = 0; mem_loads = 0; mem_stores = 0; branches = 0;
               calls = 0; check_stmts = 0; check_reloads = 0; deopts = 0 };
      out = Buffer.create 256; globals; rng = 88172645463325252; fuel;
      alat = Sem_alat.create ?faults (); recover }
  in
  let ret = exec_func st comp.main_ix no_addrs no_flts in
  let r = { ret; output = Buffer.contents st.out; counters = st.ctrs } in
  Memory.release st.mem;
  r

(** Run [main].  [fuel] bounds the number of executed statements.  The
    program is compiled first (one cheap pass); callers that execute the
    same program repeatedly can {!compile} once and use
    {!run_compiled}. *)
let run ?fuel ?faults ?recover ?heap_bytes (p : Sir.prog) : result =
  if not (Hashtbl.mem p.Sir.funcs "main") then
    error "program has no main function";
  run_compiled ?fuel ?faults ?recover ?heap_bytes (compile p)

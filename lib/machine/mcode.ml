(** Flat machine code: ITL lowered to one int array per function, run
    by the walk in {!Machine}.  See the interface for what lowering
    decides; the opcode table below is the code format. *)

open Spec_ir
open Spec_codegen.Itl

(* Opcodes and their inline operands.  [site] is a dense load/store
   site id, [msg] an index into [spool], [lat] an issue latency.  The
   walk in machine.ml matches these numbers literally. *)
let op_movi = 0        (* d i *)
let op_movf = 1        (* d f      — fpool.(f) *)
let op_mov = 2         (* d s      — both register files *)
let op_lea_g = 3       (* d vid    — address of a global *)
let op_lea_s = 4       (* d slot   — frame address slot *)
let op_lea_e = 5       (* d msg    — local without a slot: issues, fails *)
let op_ld = 6          (* d a site — ld; +1: float destination *)
let op_lds = 8         (* d a site — ld.s *)
let op_lda = 10        (* d a site — ld.a *)
let op_ldsa = 12       (* d a site — ld.sa *)
let op_ldc = 14        (* d a site — ld.c *)
let op_st = 16         (* s a site — st; +1: float source *)
let op_add = 18        (* d a b    — int ops in Sir.binop order, to 33 *)
let op_fadd = 34       (* d a b    — fadd fsub fmul fdiv, 34..37 *)
let op_flt = 38        (* d a b    — float compares lt..ne, 38..43 *)
let op_fbad = 44       (* d a b msg — int-only op on floats: issues, fails *)
let op_neg = 45        (* d s *)
let op_fneg = 46       (* d s *)
let op_lnot = 47       (* d s lat *)
let op_i2f = 48        (* d s lat *)
let op_f2i = 49        (* d s lat *)
let op_call = 50       (* fix n ret a1..an *)
let op_malloc = 51     (* site 1 ret a *)
let op_print_int = 52  (* 0 1 ret a *)
let op_print_flt = 53  (* 0 1 ret a *)
let op_seed = 54       (* 0 1 ret a *)
let op_rnd = 55        (* 0 1 ret a *)
let op_call_err = 56   (* msg n ret a1..an — unknown callee, bad builtin *)
let op_br = 57         (* pc *)
let op_bc = 58         (* c then_pc else_pc bp — bp: predictor index *)
let op_ret = 59        (* r *)
let op_ret_none = 60
let op_err = 61        (* msg *)

type formal = { aslot : int; vid : int; bytes : int; fp : bool; reg : int }

type func = {
  name : string;
  code : int array;
  nregs : int;
  n_addr : int;
  mem_locals : (int * int * int) array;
  formals : formal array;
}

type program = {
  sir : Sir.prog;
  funcs : func array;
  main : int;
  fpool : float array;
  spool : string array;
  n_sites : int;
}

(* Program-wide pools shared by every function's lowering. *)
type pools = {
  mutable floats : float list;
  mutable n_floats : int;
  mutable strings : string list;
  mutable n_strings : int;
  sites : (int, int) Hashtbl.t;    (* site key -> dense id *)
}

let add_float pl f =
  pl.floats <- f :: pl.floats;
  pl.n_floats <- pl.n_floats + 1;
  pl.n_floats - 1

let add_string pl s =
  pl.strings <- s :: pl.strings;
  pl.n_strings <- pl.n_strings + 1;
  pl.n_strings - 1

(* The out-of-order core keys its predictor tables by this value; equal
   keys share a dense id, so colliding sites keep colliding. *)
let site_key ~func_ix ~bid k = ((func_ix lsl 22) lxor (bid lsl 11)) lor k

let site_id pl key =
  match Hashtbl.find_opt pl.sites key with
  | Some id -> id
  | None ->
    let id = Hashtbl.length pl.sites in
    Hashtbl.replace pl.sites key id;
    id

let bp_size = 4096

let cell_bytes v = max Types.cell_size v.Symtab.vsize

let int_binop = function
  | Sir.Add -> 0 | Sir.Sub -> 1 | Sir.Mul -> 2 | Sir.Div -> 3 | Sir.Rem -> 4
  | Sir.Band -> 5 | Sir.Bor -> 6 | Sir.Bxor -> 7 | Sir.Shl -> 8
  | Sir.Shr -> 9 | Sir.Lt -> 10 | Sir.Le -> 11 | Sir.Gt -> 12
  | Sir.Ge -> 13 | Sir.Eq -> 14 | Sir.Ne -> 15

let lower_func (mp : mprog) pl ~func_ix_of ~func_ix (mf : mfunc) : func =
  let syms = mp.mp_sir.Sir.syms in
  let sf = Sir.find_func mp.mp_sir mf.mf_name in
  let nregs = max 1 mf.mf_nregs in
  let addr_slots : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let new_slot vid =
    let slot = Hashtbl.length addr_slots in
    Hashtbl.replace addr_slots vid slot;
    slot
  in
  let mem_locals =
    List.filter_map
      (fun vid ->
        if Symtab.is_mem syms vid then
          Some (new_slot vid, vid, cell_bytes (Symtab.var syms vid))
        else None)
      sf.Sir.flocals
    |> Array.of_list
  in
  let formal_regs = Array.of_list mf.mf_formals in
  let formals =
    List.mapi
      (fun k vid ->
        (* a formal register outside the frame binds nothing *)
        let reg =
          if k < Array.length formal_regs && formal_regs.(k) >= 0
             && formal_regs.(k) < nregs
          then formal_regs.(k)
          else -1
        in
        if Symtab.is_mem syms vid then begin
          let v = Symtab.var syms vid in
          { aslot = new_slot vid; vid; bytes = cell_bytes v;
            fp = Types.is_fp v.Symtab.vty; reg }
        end
        else { aslot = -1; vid; bytes = 0; fp = false; reg })
      sf.Sir.fformals
    |> Array.of_list
  in
  let code = ref (Array.make 256 0) and len = ref 0 in
  let emit v =
    if !len = Array.length !code then begin
      let a = Array.make (2 * !len) 0 in
      Array.blit !code 0 a 0 !len;
      code := a
    end;
    !code.(!len) <- v;
    incr len
  in
  let reg r =
    if r < 0 || r >= nregs then
      Backend.error "machine: %s uses register r%d outside its %d-register \
                     frame" mf.mf_name r nregs;
    emit r
  in
  let ret_reg = function Some r -> reg r | None -> emit (-1) in
  let lower_call ~callee ~args ~ret ~site =
    let n = List.length args in
    let call op x = emit op; emit x; emit n; ret_reg ret; List.iter reg args in
    let builtin op x =
      if n = 1 then call op x
      else
        call op_call_err
          (add_string pl (Printf.sprintf "machine: bad builtin call %s/%d"
                            callee n))
    in
    match callee with
    | "malloc" -> builtin op_malloc site
    | "print_int" -> builtin op_print_int 0
    | "print_flt" -> builtin op_print_flt 0
    | "seed" -> builtin op_seed 0
    | "rnd" -> builtin op_rnd 0
    | name ->
      (match func_ix_of name with
       | Some ix -> call op_call ix
       | None ->
         call op_call_err
           (add_string pl ("machine: unknown function " ^ name)))
  in
  let lower_insn ~bid k = function
    | Movi (d, Sir.Cint v) -> emit op_movi; reg d; emit v
    | Movi (d, Sir.Cflt f) -> emit op_movf; reg d; emit (add_float pl f)
    | Mov (d, s) -> emit op_mov; reg d; reg s
    | Lea (d, vid) ->
      let v = Symtab.var syms vid in
      (match v.Symtab.vstorage, Hashtbl.find_opt addr_slots vid with
       | Symtab.Sglobal, _ -> emit op_lea_g; reg d; emit vid
       | _, Some s -> emit op_lea_s; reg d; emit s
       | _, None ->
         emit op_lea_e; reg d;
         emit (add_string pl ("machine: no slot for " ^ v.Symtab.vname)))
    | Ld { dst; addr; fp; kind } ->
      let op =
        match kind with
        | Lnorm -> op_ld | Lspec -> op_lds | Ladv -> op_lda | Lsa -> op_ldsa
        | Lchk -> op_ldc
      in
      emit (if fp then op + 1 else op); reg dst; reg addr;
      emit (site_id pl (site_key ~func_ix ~bid k))
    | St { src; addr; fp } ->
      emit (if fp then op_st + 1 else op_st); reg src; reg addr;
      emit (site_id pl (site_key ~func_ix ~bid k))
    | Alu (op, fp, d, a, b) ->
      let i = int_binop op in
      if not fp then begin emit (op_add + i); reg d; reg a; reg b end
      else if i < 4 then begin emit (op_fadd + i); reg d; reg a; reg b end
      else if i >= 10 then begin emit (op_flt + i - 10); reg d; reg a; reg b end
      else begin
        emit op_fbad; reg d; reg a; reg b;
        emit (add_string pl ("machine: fp alu " ^ Pp.binop_str op))
      end
    | Un (op, fp, d, s) ->
      let lat = if fp then 4 else 1 in
      (match op with
       | Sir.Neg -> emit (if fp then op_fneg else op_neg); reg d; reg s
       | Sir.Lnot -> emit op_lnot; reg d; reg s; emit lat
       | Sir.I2f -> emit op_i2f; reg d; reg s; emit lat
       | Sir.F2i -> emit op_f2i; reg d; reg s; emit lat)
    | Call { callee; args; ret; site } -> lower_call ~callee ~args ~ret ~site
  in
  let nblocks = Array.length mf.mf_blocks in
  let block_pc = Array.make nblocks 0 in
  let patches = ref [] in
  let target t =
    if t < 0 || t >= nblocks then
      Backend.error "machine: %s branches to missing block B%d" mf.mf_name t;
    patches := (!len, t) :: !patches;
    emit 0
  in
  if nblocks = 0 then begin
    emit op_err; emit (add_string pl ("machine: no code for " ^ mf.mf_name))
  end;
  Array.iteri
    (fun bid b ->
      block_pc.(bid) <- !len;
      List.iteri (lower_insn ~bid) b.insns;
      match b.mterm with
      | Tbr t -> emit op_br; target t
      | Tbc (c, t, e) ->
        emit op_bc; reg c; target t; target e;
        emit ((site_key ~func_ix ~bid 2047 * 0x9E3779B1) land (bp_size - 1))
      | Tret None -> emit op_ret_none
      | Tret (Some r) -> emit op_ret; reg r)
    mf.mf_blocks;
  List.iter (fun (pos, t) -> !code.(pos) <- block_pc.(t)) !patches;
  { name = mf.mf_name; code = Array.sub !code 0 !len; nregs;
    n_addr = Hashtbl.length addr_slots; mem_locals; formals }

let lower (mp : mprog) : program =
  let order = Array.of_list mp.mp_order in
  let ix_of = Hashtbl.create 16 in
  Array.iteri (fun i name -> Hashtbl.replace ix_of name i) order;
  let func_ix_of name = Hashtbl.find_opt ix_of name in
  let pl =
    { floats = []; n_floats = 0; strings = []; n_strings = 0;
      sites = Hashtbl.create 64 }
  in
  let funcs =
    Array.mapi
      (fun func_ix name ->
        lower_func mp pl ~func_ix_of ~func_ix (Hashtbl.find mp.mp_funcs name))
      order
  in
  { sir = mp.mp_sir; funcs;
    main = (match func_ix_of "main" with Some i -> i | None -> -1);
    fpool = Array.of_list (List.rev pl.floats);
    spool = Array.of_list (List.rev pl.strings);
    n_sites = Hashtbl.length pl.sites }

(** Full-fidelity SIR serialization ([specsir/2]) for the compile cache.

    A cache hit must hand back a program byte-for-byte equivalent to the
    one the optimizer produced — same variable table (including SSA
    versions and temporaries, so ids and pretty-printed output are
    identical), same site table, statements, marks, check links, block
    frequencies and predecessor lists.  The format is a deterministic
    token stream (writer below, recursive-descent reader after it, via
    {!Textio}); no [Marshal], so artifacts are stable across OCaml
    versions and safe to inspect.

    [specsir/2] carries the speculative-safety metadata too:
    per-variable [secret] contract bits and per-check deoptimization
    descriptors, from which {!Spec_prof.Interp.compile} rebuilds the
    vm's descriptor tables on a cache hit.  Only [specsir/2] reads: the
    version feeds the compile-cache key, so text of any other version is
    never looked up. *)

open Spec_ir

let version = "specsir/2"

let q = Textio.quote

(* ------------------------------------------------------------------ *)
(* Token tags                                                          *)
(* ------------------------------------------------------------------ *)

let rec ty_str = function
  | Types.Tptr t -> "p" ^ ty_str t
  | Types.Tint -> "i"
  | Types.Tflt -> "f"
  | Types.Tvoid -> "v"

let ty_of_string lx s =
  let n = String.length s in
  let rec go i =
    if i >= n then Textio.fail lx "empty type token"
    else
      match s.[i] with
      | 'p' -> Types.Tptr (go (i + 1))
      | 'i' when i = n - 1 -> Types.Tint
      | 'f' when i = n - 1 -> Types.Tflt
      | 'v' when i = n - 1 -> Types.Tvoid
      | _ -> Textio.fail lx (Printf.sprintf "bad type token %S" s)
  in
  go 0

let storage_tag = function
  | Symtab.Sglobal -> "g"
  | Symtab.Slocal -> "l"
  | Symtab.Sformal -> "f"
  | Symtab.Stemp -> "t"
  | Symtab.Svirtual -> "v"

let storage_of_tag lx = function
  | "g" -> Symtab.Sglobal
  | "l" -> Symtab.Slocal
  | "f" -> Symtab.Sformal
  | "t" -> Symtab.Stemp
  | "v" -> Symtab.Svirtual
  | s -> Textio.fail lx (Printf.sprintf "bad storage tag %S" s)

let mark_tag = function
  | Sir.Mnone -> "n"
  | Sir.Madv -> "a"
  | Sir.Mchk -> "c"
  | Sir.Mcspec -> "s"
  | Sir.Msa -> "sa"

let mark_of_tag lx = function
  | "n" -> Sir.Mnone
  | "a" -> Sir.Madv
  | "c" -> Sir.Mchk
  | "s" -> Sir.Mcspec
  | "sa" -> Sir.Msa
  | s -> Textio.fail lx (Printf.sprintf "bad mark tag %S" s)

let binop_of_tag lx = function
  | "+" -> Sir.Add | "-" -> Sir.Sub | "*" -> Sir.Mul | "/" -> Sir.Div
  | "%" -> Sir.Rem | "<" -> Sir.Lt | "<=" -> Sir.Le | ">" -> Sir.Gt
  | ">=" -> Sir.Ge | "==" -> Sir.Eq | "!=" -> Sir.Ne | "&" -> Sir.Band
  | "|" -> Sir.Bor | "^" -> Sir.Bxor | "<<" -> Sir.Shl | ">>" -> Sir.Shr
  | s -> Textio.fail lx (Printf.sprintf "bad binop tag %S" s)

let unop_of_tag lx = function
  | "neg" -> Sir.Neg | "not" -> Sir.Lnot | "i2f" -> Sir.I2f | "f2i" -> Sir.F2i
  | s -> Textio.fail lx (Printf.sprintf "bad unop tag %S" s)

let kind_tag = function
  | Sir.Kiload -> "ld"
  | Sir.Kistore -> "st"
  | Sir.Kcall -> "call"

let site_kind_of_tag lx = function
  | "ld" -> Sir.Kiload
  | "st" -> Sir.Kistore
  | "call" -> Sir.Kcall
  | s -> Textio.fail lx (Printf.sprintf "bad site kind %S" s)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let bool_str b = if b then "1" else "0"

let rec write_expr buf (e : Sir.expr) =
  match e with
  | Sir.Const (Sir.Cint i) -> Printf.bprintf buf " ci %d" i
  | Sir.Const (Sir.Cflt f) -> Printf.bprintf buf " cf %h" f
  | Sir.Lod v -> Printf.bprintf buf " lod %d" v
  | Sir.Ilod (t, a, site) ->
    Printf.bprintf buf " ild %s %d" (ty_str t) site;
    write_expr buf a
  | Sir.Lda v -> Printf.bprintf buf " lda %d" v
  | Sir.Unop (o, t, x) ->
    Printf.bprintf buf " un %s %s" (Sitekey.unop_tag o) (ty_str t);
    write_expr buf x
  | Sir.Binop (o, t, a, b) ->
    Printf.bprintf buf " bin %s %s" (Sitekey.binop_tag o) (ty_str t);
    write_expr buf a;
    write_expr buf b

let write_stmt buf (s : Sir.stmt) =
  Printf.bprintf buf "stmt %d %s %d" s.Sir.sid (mark_tag s.Sir.mark)
    s.Sir.check_of;
  (match s.Sir.deopt with
   | None -> Buffer.add_string buf " -"
   | Some d ->
     Printf.bprintf buf " d %d %d" d.Sir.dp_target
       (List.length d.Sir.dp_vars);
     List.iter (fun v -> Printf.bprintf buf " %d" v) d.Sir.dp_vars);
  Printf.bprintf buf " %d %d"
    (List.length s.Sir.mus)
    (List.length s.Sir.chis);
  (match s.Sir.kind with
   | Sir.Stid (v, e) ->
     Printf.bprintf buf " tid %d" v;
     write_expr buf e
   | Sir.Istr (t, a, v, site) ->
     Printf.bprintf buf " istr %s %d" (ty_str t) site;
     write_expr buf a;
     write_expr buf v
   | Sir.Call c ->
     Printf.bprintf buf " call %s %d %d %s"
       (match c.Sir.ret with Some r -> string_of_int r | None -> "-")
       c.Sir.csite
       (List.length c.Sir.args)
       (q c.Sir.callee);
     List.iter (write_expr buf) c.Sir.args
   | Sir.Snop -> Buffer.add_string buf " nop");
  Buffer.add_char buf '\n';
  List.iter
    (fun (m : Sir.mu) ->
      Printf.bprintf buf "mu %d %d %s\n" m.Sir.mu_opnd m.Sir.mu_var
        (bool_str m.Sir.mu_spec))
    s.Sir.mus;
  List.iter
    (fun (c : Sir.chi) ->
      Printf.bprintf buf "chi %d %d %d %s\n" c.Sir.chi_lhs c.Sir.chi_rhs
        c.Sir.chi_var (bool_str c.Sir.chi_spec))
    s.Sir.chis

let write_block buf (b : Sir.bb) =
  Printf.bprintf buf "block %d %h %d" b.Sir.bid b.Sir.freq
    (List.length b.Sir.preds);
  List.iter (fun p -> Printf.bprintf buf " %d" p) b.Sir.preds;
  Printf.bprintf buf " %d %d\n" (List.length b.Sir.phis)
    (List.length b.Sir.stmts);
  List.iter
    (fun (p : Sir.phi) ->
      Printf.bprintf buf "phi %d %d %s %d" p.Sir.phi_var p.Sir.phi_lhs
        (bool_str p.Sir.phi_live)
        (Array.length p.Sir.phi_args);
      Array.iter (fun a -> Printf.bprintf buf " %d" a) p.Sir.phi_args;
      Buffer.add_char buf '\n')
    b.Sir.phis;
  List.iter (write_stmt buf) b.Sir.stmts;
  (match b.Sir.term with
   | Sir.Tgoto t -> Printf.bprintf buf "term goto %d\n" t
   | Sir.Tcond (e, t, el) ->
     Printf.bprintf buf "term cond %d %d" t el;
     write_expr buf e;
     Buffer.add_char buf '\n'
   | Sir.Tret None -> Buffer.add_string buf "term retv\n"
   | Sir.Tret (Some e) ->
     Buffer.add_string buf "term ret";
     write_expr buf e;
     Buffer.add_char buf '\n')

let write_func buf (f : Sir.func) =
  Printf.bprintf buf "func %s %d" (ty_str f.Sir.fret)
    (List.length f.Sir.fformals);
  List.iter (fun v -> Printf.bprintf buf " %d" v) f.Sir.fformals;
  Printf.bprintf buf " %d" (List.length f.Sir.flocals);
  List.iter (fun v -> Printf.bprintf buf " %d" v) f.Sir.flocals;
  Printf.bprintf buf " %d %s\n" (Sir.n_blocks f) (q f.Sir.fname);
  Vec.iter (write_block buf) f.Sir.fblocks

(** Serialize a program.  Deterministic: equal programs produce
    byte-identical output. *)
let write (p : Sir.prog) : string =
  let buf = Buffer.create 65536 in
  Printf.bprintf buf "%s\n" version;
  let syms = p.Sir.syms in
  Printf.bprintf buf "vars %d\n" (Symtab.count syms);
  Symtab.iter
    (fun (v : Symtab.var) ->
      Printf.bprintf buf "v %s %d %d %s %d %s %s %s %s %s %s\n"
        (storage_tag v.Symtab.vstorage)
        v.Symtab.vver v.Symtab.vorig
        (bool_str v.Symtab.vaddr_taken)
        v.Symtab.vsize
        (bool_str v.Symtab.varray)
        (bool_str v.Symtab.vsecret)
        (ty_str v.Symtab.vty) (ty_str v.Symtab.velt)
        (match v.Symtab.vfunc with Some f -> q f | None -> "-")
        (q v.Symtab.vname))
    syms;
  Printf.bprintf buf "globals %d" (List.length p.Sir.globals);
  List.iter (fun g -> Printf.bprintf buf " %d" g) p.Sir.globals;
  Buffer.add_char buf '\n';
  let sites =
    List.sort compare
      (Hashtbl.fold (fun id si acc -> (id, si) :: acc) p.Sir.sites [])
  in
  Printf.bprintf buf "sites %d\n" (List.length sites);
  List.iter
    (fun (id, (si : Sir.site_info)) ->
      Printf.bprintf buf "site %d %s %d %s\n" id (kind_tag si.Sir.si_kind)
        si.Sir.si_line (q si.Sir.si_func))
    sites;
  Printf.bprintf buf "next %d %d %d\n" p.Sir.next_site p.Sir.next_stmt
    p.Sir.next_label;
  Printf.bprintf buf "funcs %d\n" (List.length p.Sir.func_order);
  List.iter (fun name -> write_func buf (Sir.find_func p name))
    p.Sir.func_order;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

let rec read_expr lx : Sir.expr =
  match Textio.token lx with
  | "ci" -> Sir.Const (Sir.Cint (Textio.int_tok lx))
  | "cf" -> Sir.Const (Sir.Cflt (Textio.float_tok lx))
  | "lod" -> Sir.Lod (Textio.int_tok lx)
  | "ild" ->
    let t = ty_of_string lx (Textio.token lx) in
    let site = Textio.int_tok lx in
    let a = read_expr lx in
    Sir.Ilod (t, a, site)
  | "lda" -> Sir.Lda (Textio.int_tok lx)
  | "un" ->
    let o = unop_of_tag lx (Textio.token lx) in
    let t = ty_of_string lx (Textio.token lx) in
    let x = read_expr lx in
    Sir.Unop (o, t, x)
  | "bin" ->
    let o = binop_of_tag lx (Textio.token lx) in
    let t = ty_of_string lx (Textio.token lx) in
    let a = read_expr lx in
    let b = read_expr lx in
    Sir.Binop (o, t, a, b)
  | w -> Textio.fail lx (Printf.sprintf "bad expression tag %S" w)

let read_ints lx n = List.init n (fun _ -> Textio.int_tok lx)

let read_stmt lx : Sir.stmt =
  Textio.expect lx "stmt";
  let sid = Textio.int_tok lx in
  let mark = mark_of_tag lx (Textio.token lx) in
  let check_of = Textio.int_tok lx in
  let deopt =
    match Textio.token lx with
    | "-" -> None
    | "d" ->
      let target = Textio.int_tok lx in
      let n = Textio.int_tok lx in
      Some { Sir.dp_target = target; dp_vars = read_ints lx n }
    | w -> Textio.fail lx (Printf.sprintf "bad deopt tag %S" w)
  in
  let nmus = Textio.int_tok lx in
  let nchis = Textio.int_tok lx in
  let kind =
    match Textio.token lx with
    | "tid" ->
      let v = Textio.int_tok lx in
      Sir.Stid (v, read_expr lx)
    | "istr" ->
      let t = ty_of_string lx (Textio.token lx) in
      let site = Textio.int_tok lx in
      let a = read_expr lx in
      let v = read_expr lx in
      Sir.Istr (t, a, v, site)
    | "call" ->
      let ret =
        match Textio.token lx with
        | "-" -> None
        | r ->
          (match int_of_string_opt r with
           | Some r -> Some r
           | None -> Textio.fail lx "bad call return")
      in
      let csite = Textio.int_tok lx in
      let nargs = Textio.int_tok lx in
      let callee = Textio.token lx in
      let args = List.init nargs (fun _ -> read_expr lx) in
      Sir.Call { Sir.callee; args; ret; csite }
    | "nop" -> Sir.Snop
    | w -> Textio.fail lx (Printf.sprintf "bad statement kind %S" w)
  in
  let mus =
    List.init nmus (fun _ ->
        Textio.expect lx "mu";
        let opnd = Textio.int_tok lx in
        let var = Textio.int_tok lx in
        let spec = Textio.bool_tok lx in
        { Sir.mu_opnd = opnd; mu_var = var; mu_spec = spec })
  in
  let chis =
    List.init nchis (fun _ ->
        Textio.expect lx "chi";
        let lhs = Textio.int_tok lx in
        let rhs = Textio.int_tok lx in
        let var = Textio.int_tok lx in
        let spec = Textio.bool_tok lx in
        { Sir.chi_lhs = lhs; chi_rhs = rhs; chi_var = var; chi_spec = spec })
  in
  { Sir.sid; kind; mus; chis; mark; check_of; deopt }

let read_block lx : Sir.bb =
  Textio.expect lx "block";
  let bid = Textio.int_tok lx in
  let freq = Textio.float_tok lx in
  let npreds = Textio.int_tok lx in
  let preds = read_ints lx npreds in
  let nphis = Textio.int_tok lx in
  let nstmts = Textio.int_tok lx in
  let phis =
    List.init nphis (fun _ ->
        Textio.expect lx "phi";
        let var = Textio.int_tok lx in
        let lhs = Textio.int_tok lx in
        let live = Textio.bool_tok lx in
        let nargs = Textio.int_tok lx in
        let args = Array.of_list (read_ints lx nargs) in
        { Sir.phi_var = var; phi_lhs = lhs; phi_args = args;
          phi_live = live })
  in
  let stmts = List.init nstmts (fun _ -> read_stmt lx) in
  let term =
    Textio.expect lx "term";
    match Textio.token lx with
    | "goto" -> Sir.Tgoto (Textio.int_tok lx)
    | "cond" ->
      let t = Textio.int_tok lx in
      let el = Textio.int_tok lx in
      let e = read_expr lx in
      Sir.Tcond (e, t, el)
    | "retv" -> Sir.Tret None
    | "ret" -> Sir.Tret (Some (read_expr lx))
    | w -> Textio.fail lx (Printf.sprintf "bad terminator %S" w)
  in
  { Sir.bid; phis; stmts; term; preds; freq }

let read_func lx : Sir.func =
  Textio.expect lx "func";
  let fret = ty_of_string lx (Textio.token lx) in
  let nformals = Textio.int_tok lx in
  let fformals = read_ints lx nformals in
  let nlocals = Textio.int_tok lx in
  let flocals = read_ints lx nlocals in
  let nblocks = Textio.int_tok lx in
  let fname = Textio.token lx in
  let blocks = List.init nblocks (fun _ -> read_block lx) in
  { Sir.fname; fret; fformals;
    fblocks = Vec.of_list Sir.dummy_bb blocks; flocals }

(** Parse what {!write} emits, from [lx]'s position to the end of its
    input.  Raises [Textio.Error] on the first offending token. *)
let read_from lx : Sir.prog =
  Textio.expect lx version;
  let p = Sir.create_prog () in
  Textio.expect lx "vars";
  let nvars = Textio.int_tok lx in
  for vid = 0 to nvars - 1 do
    Textio.expect lx "v";
    let storage = storage_of_tag lx (Textio.token lx) in
    let vver = Textio.int_tok lx in
    let vorig = Textio.int_tok lx in
    let addr = Textio.bool_tok lx in
    let size = Textio.int_tok lx in
    let arr = Textio.bool_tok lx in
    let secret = Textio.bool_tok lx in
    let ty = ty_of_string lx (Textio.token lx) in
    let elt = ty_of_string lx (Textio.token lx) in
    let vfunc = match Textio.token lx with "-" -> None | f -> Some f in
    let name = Textio.token lx in
    Vec.push p.Sir.syms.Symtab.vars
      { Symtab.vid; vname = name; vty = ty; vstorage = storage; vfunc;
        vsize = size; velt = elt; varray = arr; vaddr_taken = addr;
        vsecret = secret; vorig; vver }
  done;
  Textio.expect lx "globals";
  let ng = Textio.int_tok lx in
  p.Sir.globals <- read_ints lx ng;
  Textio.expect lx "sites";
  let nsites = Textio.int_tok lx in
  for _ = 1 to nsites do
    Textio.expect lx "site";
    let id = Textio.int_tok lx in
    let kind = site_kind_of_tag lx (Textio.token lx) in
    let line = Textio.int_tok lx in
    let func = Textio.token lx in
    Hashtbl.replace p.Sir.sites id
      { Sir.si_id = id; si_kind = kind; si_func = func; si_line = line }
  done;
  Textio.expect lx "next";
  p.Sir.next_site <- Textio.int_tok lx;
  p.Sir.next_stmt <- Textio.int_tok lx;
  p.Sir.next_label <- Textio.int_tok lx;
  Textio.expect lx "funcs";
  let nfuncs = Textio.int_tok lx in
  for _ = 1 to nfuncs do
    let f = read_func lx in
    Hashtbl.replace p.Sir.funcs f.Sir.fname f;
    p.Sir.func_order <- p.Sir.func_order @ [ f.Sir.fname ]
  done;
  Textio.expect lx "end";
  if not (Textio.at_eof lx) then Textio.fail lx "trailing data after end";
  p

let read (s : string) : (Sir.prog, string) result =
  try Ok (read_from (Textio.make s)) with Textio.Error msg -> Error msg

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

(* ------------------------------------------------------------------ *)
(* Token tags                                                          *)
(* ------------------------------------------------------------------ *)

(* Each reader table pairs a writer spelling with its value, so a tag is
   spelled in one place. *)
let tags spell values = Array.map (fun v -> (spell v, v)) values

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

(* the types up to two pointer levels; deeper ones parse through
   [ty_of_string] *)
let ty_tags =
  let base = [ Types.Tint; Types.Tflt; Types.Tvoid ] in
  let ptrs = List.map (fun t -> Types.Tptr t) in
  tags ty_str (Array.of_list (base @ ptrs base @ ptrs (ptrs base)))

let ty_tok lx = Textio.tag_or lx ty_tags ty_of_string

let storage_tag = function
  | Symtab.Sglobal -> "g"
  | Symtab.Slocal -> "l"
  | Symtab.Sformal -> "f"
  | Symtab.Stemp -> "t"
  | Symtab.Svirtual -> "v"

let storage_tags =
  tags storage_tag
    [| Symtab.Sglobal; Symtab.Slocal; Symtab.Sformal; Symtab.Stemp;
       Symtab.Svirtual |]

let mark_tag = function
  | Sir.Mnone -> "n"
  | Sir.Madv -> "a"
  | Sir.Mchk -> "c"
  | Sir.Mcspec -> "s"
  | Sir.Msa -> "sa"

let mark_tags =
  tags mark_tag [| Sir.Mnone; Sir.Madv; Sir.Mchk; Sir.Mcspec; Sir.Msa |]

let binop_tags =
  tags Sitekey.binop_tag
    [| Sir.Add; Sir.Sub; Sir.Mul; Sir.Div; Sir.Rem; Sir.Lt; Sir.Le; Sir.Gt;
       Sir.Ge; Sir.Eq; Sir.Ne; Sir.Band; Sir.Bor; Sir.Bxor; Sir.Shl;
       Sir.Shr |]

let unop_tags =
  tags Sitekey.unop_tag [| Sir.Neg; Sir.Lnot; Sir.I2f; Sir.F2i |]

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let str = Buffer.add_string
let int = Textio.add_int

(* " " then [i] *)
let sp_int buf i =
  Buffer.add_char buf ' ';
  Textio.add_int buf i

let sp_quoted buf s =
  Buffer.add_char buf ' ';
  Textio.add_quoted buf s

let sp_bool buf b = str buf (if b then " 1" else " 0")

let rec write_expr buf (e : Sir.expr) =
  match e with
  | Sir.Const (Sir.Cint i) -> str buf " ci "; int buf i
  | Sir.Const (Sir.Cflt f) -> Printf.bprintf buf " cf %h" f
  | Sir.Lod v -> str buf " lod "; int buf v
  | Sir.Ilod (t, a, site) ->
    str buf " ild ";
    str buf (ty_str t);
    sp_int buf site;
    write_expr buf a
  | Sir.Lda v -> str buf " lda "; int buf v
  | Sir.Unop (o, t, x) ->
    str buf " un ";
    str buf (Sitekey.unop_tag o);
    Buffer.add_char buf ' ';
    str buf (ty_str t);
    write_expr buf x
  | Sir.Binop (o, t, a, b) ->
    str buf " bin ";
    str buf (Sitekey.binop_tag o);
    Buffer.add_char buf ' ';
    str buf (ty_str t);
    write_expr buf a;
    write_expr buf b

let write_stmt buf (s : Sir.stmt) =
  str buf "stmt ";
  int buf s.Sir.sid;
  Buffer.add_char buf ' ';
  str buf (mark_tag s.Sir.mark);
  sp_int buf s.Sir.check_of;
  (match s.Sir.deopt with
   | None -> str buf " -"
   | Some d ->
     str buf " d";
     sp_int buf d.Sir.dp_target;
     sp_int buf (List.length d.Sir.dp_vars);
     List.iter (sp_int buf) d.Sir.dp_vars);
  sp_int buf (List.length s.Sir.mus);
  sp_int buf (List.length s.Sir.chis);
  (match s.Sir.kind with
   | Sir.Stid (v, e) ->
     str buf " tid";
     sp_int buf v;
     write_expr buf e
   | Sir.Istr (t, a, v, site) ->
     str buf " istr ";
     str buf (ty_str t);
     sp_int buf site;
     write_expr buf a;
     write_expr buf v
   | Sir.Call c ->
     str buf " call";
     (match c.Sir.ret with Some r -> sp_int buf r | None -> str buf " -");
     sp_int buf c.Sir.csite;
     sp_int buf (List.length c.Sir.args);
     sp_quoted buf c.Sir.callee;
     List.iter (write_expr buf) c.Sir.args
   | Sir.Snop -> str buf " nop");
  Buffer.add_char buf '\n';
  List.iter
    (fun (m : Sir.mu) ->
      str buf "mu ";
      int buf m.Sir.mu_opnd;
      sp_int buf m.Sir.mu_var;
      sp_bool buf m.Sir.mu_spec;
      Buffer.add_char buf '\n')
    s.Sir.mus;
  List.iter
    (fun (c : Sir.chi) ->
      str buf "chi ";
      int buf c.Sir.chi_lhs;
      sp_int buf c.Sir.chi_rhs;
      sp_int buf c.Sir.chi_var;
      sp_bool buf c.Sir.chi_spec;
      Buffer.add_char buf '\n')
    s.Sir.chis

let write_block buf (b : Sir.bb) =
  str buf "block ";
  int buf b.Sir.bid;
  Printf.bprintf buf " %h" b.Sir.freq;
  sp_int buf (List.length b.Sir.preds);
  List.iter (sp_int buf) b.Sir.preds;
  sp_int buf (List.length b.Sir.phis);
  sp_int buf (List.length b.Sir.stmts);
  Buffer.add_char buf '\n';
  List.iter
    (fun (p : Sir.phi) ->
      str buf "phi ";
      int buf p.Sir.phi_var;
      sp_int buf p.Sir.phi_lhs;
      sp_bool buf p.Sir.phi_live;
      sp_int buf (Array.length p.Sir.phi_args);
      Array.iter (sp_int buf) p.Sir.phi_args;
      Buffer.add_char buf '\n')
    b.Sir.phis;
  List.iter (write_stmt buf) b.Sir.stmts;
  (match b.Sir.term with
   | Sir.Tgoto t -> str buf "term goto "; int buf t
   | Sir.Tcond (e, t, el) ->
     str buf "term cond ";
     int buf t;
     sp_int buf el;
     write_expr buf e
   | Sir.Tret None -> str buf "term retv"
   | Sir.Tret (Some e) ->
     str buf "term ret";
     write_expr buf e);
  Buffer.add_char buf '\n'

let write_func buf (f : Sir.func) =
  str buf "func ";
  str buf (ty_str f.Sir.fret);
  sp_int buf (List.length f.Sir.fformals);
  List.iter (sp_int buf) f.Sir.fformals;
  sp_int buf (List.length f.Sir.flocals);
  List.iter (sp_int buf) f.Sir.flocals;
  sp_int buf (Sir.n_blocks f);
  sp_quoted buf f.Sir.fname;
  Buffer.add_char buf '\n';
  Vec.iter (write_block buf) f.Sir.fblocks

(** Serialize a program.  Deterministic: equal programs produce
    byte-identical output. *)
let write (p : Sir.prog) : string =
  let buf = Buffer.create 65536 in
  str buf version;
  Buffer.add_char buf '\n';
  let syms = p.Sir.syms in
  str buf "vars ";
  int buf (Symtab.count syms);
  Buffer.add_char buf '\n';
  Symtab.iter
    (fun (v : Symtab.var) ->
      str buf "v ";
      str buf (storage_tag v.Symtab.vstorage);
      sp_int buf v.Symtab.vver;
      sp_int buf v.Symtab.vorig;
      sp_bool buf v.Symtab.vaddr_taken;
      sp_int buf v.Symtab.vsize;
      sp_bool buf v.Symtab.varray;
      sp_bool buf v.Symtab.vsecret;
      Buffer.add_char buf ' ';
      str buf (ty_str v.Symtab.vty);
      Buffer.add_char buf ' ';
      str buf (ty_str v.Symtab.velt);
      (match v.Symtab.vfunc with
       | Some f -> sp_quoted buf f
       | None -> str buf " -");
      sp_quoted buf v.Symtab.vname;
      Buffer.add_char buf '\n')
    syms;
  str buf "globals ";
  int buf (List.length p.Sir.globals);
  List.iter (sp_int buf) p.Sir.globals;
  Buffer.add_char buf '\n';
  let sites =
    List.sort compare
      (Hashtbl.fold (fun id si acc -> (id, si) :: acc) p.Sir.sites [])
  in
  str buf "sites ";
  int buf (List.length sites);
  Buffer.add_char buf '\n';
  List.iter
    (fun (id, (si : Sir.site_info)) ->
      str buf "site ";
      int buf id;
      Buffer.add_char buf ' ';
      str buf (Sitekey.kind_tag si.Sir.si_kind);
      sp_int buf si.Sir.si_line;
      sp_quoted buf si.Sir.si_func;
      Buffer.add_char buf '\n')
    sites;
  str buf "next ";
  int buf p.Sir.next_site;
  sp_int buf p.Sir.next_stmt;
  sp_int buf p.Sir.next_label;
  str buf "\nfuncs ";
  int buf (List.length p.Sir.func_order);
  Buffer.add_char buf '\n';
  List.iter (fun name -> write_func buf (Sir.find_func p name))
    p.Sir.func_order;
  str buf "end\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type expr_tag = Ci | Cf | Lod | Ild | Lda | Un | Bin

(* most frequent first: the table is scanned in order *)
let expr_tags =
  [| ("lod", Lod); ("ci", Ci); ("bin", Bin); ("ild", Ild); ("lda", Lda);
     ("un", Un); ("cf", Cf) |]

let rec read_expr lx : Sir.expr =
  match Textio.tag lx ~what:"bad expression tag" expr_tags with
  | Ci -> Sir.Const (Sir.Cint (Textio.int_tok lx))
  | Cf -> Sir.Const (Sir.Cflt (Textio.float_tok lx))
  | Lod -> Sir.Lod (Textio.int_tok lx)
  | Ild ->
    let t = ty_tok lx in
    let site = Textio.int_tok lx in
    let a = read_expr lx in
    Sir.Ilod (t, a, site)
  | Lda -> Sir.Lda (Textio.int_tok lx)
  | Un ->
    let o = Textio.tag lx ~what:"bad unop tag" unop_tags in
    let t = ty_tok lx in
    let x = read_expr lx in
    Sir.Unop (o, t, x)
  | Bin ->
    let o = Textio.tag lx ~what:"bad binop tag" binop_tags in
    let t = ty_tok lx in
    let a = read_expr lx in
    let b = read_expr lx in
    Sir.Binop (o, t, a, b)

let read_ints lx n = List.init n (fun _ -> Textio.int_tok lx)

(* "-" for none *)
let no_ret = [| ("-", None) |]
let no_func = [| ("-", None) |]

type deopt_tag = No_deopt | Deopt

let deopt_tags = [| ("-", No_deopt); ("d", Deopt) |]

type kind_tag = Tid | Istr | Call | Nop

let kind_tags = [| ("tid", Tid); ("istr", Istr); ("call", Call); ("nop", Nop) |]

let call_ret lx r =
  match int_of_string_opt r with
  | Some r -> Some r
  | None -> Textio.fail lx "bad call return"

type term_tag = Goto | Cond | Retv | Ret

let term_tags = [| ("goto", Goto); ("cond", Cond); ("retv", Retv); ("ret", Ret) |]

let read_stmt lx : Sir.stmt =
  Textio.expect lx "stmt";
  let sid = Textio.int_tok lx in
  let mark = Textio.tag lx ~what:"bad mark tag" mark_tags in
  let check_of = Textio.int_tok lx in
  let deopt =
    match Textio.tag lx ~what:"bad deopt tag" deopt_tags with
    | No_deopt -> None
    | Deopt ->
      let target = Textio.int_tok lx in
      let n = Textio.int_tok lx in
      Some { Sir.dp_target = target; dp_vars = read_ints lx n }
  in
  let nmus = Textio.int_tok lx in
  let nchis = Textio.int_tok lx in
  let kind =
    match Textio.tag lx ~what:"bad statement kind" kind_tags with
    | Tid ->
      let v = Textio.int_tok lx in
      Sir.Stid (v, read_expr lx)
    | Istr ->
      let t = ty_tok lx in
      let site = Textio.int_tok lx in
      let a = read_expr lx in
      let v = read_expr lx in
      Sir.Istr (t, a, v, site)
    | Call ->
      let ret = Textio.tag_or lx no_ret call_ret in
      let csite = Textio.int_tok lx in
      let nargs = Textio.int_tok lx in
      let callee = Textio.token lx in
      let args = List.init nargs (fun _ -> read_expr lx) in
      Sir.Call { Sir.callee; args; ret; csite }
    | Nop -> Sir.Snop
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
        let args = Array.init nargs (fun _ -> Textio.int_tok lx) in
        { Sir.phi_var = var; phi_lhs = lhs; phi_args = args;
          phi_live = live })
  in
  let stmts = List.init nstmts (fun _ -> read_stmt lx) in
  let term =
    Textio.expect lx "term";
    match Textio.tag lx ~what:"bad terminator" term_tags with
    | Goto -> Sir.Tgoto (Textio.int_tok lx)
    | Cond ->
      let t = Textio.int_tok lx in
      let el = Textio.int_tok lx in
      let e = read_expr lx in
      Sir.Tcond (e, t, el)
    | Retv -> Sir.Tret None
    | Ret -> Sir.Tret (Some (read_expr lx))
  in
  { Sir.bid; phis; stmts; term; preds; freq }

let read_func lx : Sir.func =
  Textio.expect lx "func";
  let fret = ty_tok lx in
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
    let storage = Textio.tag lx ~what:"bad storage tag" storage_tags in
    let vver = Textio.int_tok lx in
    let vorig = Textio.int_tok lx in
    let addr = Textio.bool_tok lx in
    let size = Textio.int_tok lx in
    let arr = Textio.bool_tok lx in
    let secret = Textio.bool_tok lx in
    let ty = ty_tok lx in
    let elt = ty_tok lx in
    let vfunc = Textio.tag_or lx no_func (fun _ f -> Some f) in
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
    let kind = Textio.tag lx ~what:"bad site kind" Sitekey.kind_tags in
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
  let order = ref [] in
  for _ = 1 to nfuncs do
    let f = read_func lx in
    Hashtbl.replace p.Sir.funcs f.Sir.fname f;
    order := f.Sir.fname :: !order
  done;
  p.Sir.func_order <- List.rev !order;
  Textio.expect lx "end";
  if not (Textio.at_eof lx) then Textio.fail lx "trailing data after end";
  p

let read (s : string) : (Sir.prog, string) result =
  try Ok (read_from (Textio.make s)) with Textio.Error msg -> Error msg

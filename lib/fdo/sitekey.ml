(** Stable keys for static memory-reference and call sites.

    The profiler keys its measurements on dense integer site ids assigned
    in lowering order ({!Spec_ir.Sir.new_site}), which shift whenever the
    source is edited — adding one statement renumbers every later site in
    the program.  A persisted profile therefore cannot store raw ids; it
    stores *site keys* instead:

      (function name, site kind, reference shape, occurrence ordinal)

    The reference shape is a canonical rendering of the address expression
    (callee name and arity for call sites) using original variable
    *names*, never ids, so it survives recompilation and edits elsewhere
    in the program.  The ordinal disambiguates textually identical
    references inside one function (the k-th [*(p + i)] iload of [f], in
    layout order).  A key matches a recompiled — possibly edited — source
    exactly when the function still contains a same-kind reference of the
    same shape at the same ordinal; everything else degrades to
    "no profile evidence", which only forgoes speculation (see
    {!Spec_spec.Flags.assign}).

    The per-function body digest serves the coarser control-flow side:
    edge profiles are keyed on basic-block ids, which have no stable
    textual identity, so stored edges re-bind only when the whole
    function body is unchanged (same digest ⇒ same lowering ⇒ same block
    ids). *)

open Spec_ir

type t = {
  sk_func : string;        (** enclosing function name *)
  sk_kind : Sir.site_kind; (** iload / istore / call *)
  sk_shape : string;       (** canonical reference shape *)
  sk_ord : int;            (** occurrence ordinal within (func, kind, shape) *)
}

let kind_tag = function
  | Sir.Kiload -> "ld"
  | Sir.Kistore -> "st"
  | Sir.Kcall -> "call"

let kind_tags =
  Array.map (fun k -> (kind_tag k, k)) [| Sir.Kiload; Sir.Kistore; Sir.Kcall |]

let compare (a : t) (b : t) =
  let c = String.compare a.sk_func b.sk_func in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.sk_kind b.sk_kind in
    if c <> 0 then c
    else
      let c = String.compare a.sk_shape b.sk_shape in
      if c <> 0 then c else Stdlib.compare a.sk_ord b.sk_ord

let equal a b = compare a b = 0

let to_string k =
  Printf.sprintf "%s:%s#%d %s" (kind_tag k.sk_kind) k.sk_func k.sk_ord
    k.sk_shape

(* ------------------------------------------------------------------ *)
(* Canonical shapes                                                    *)
(* ------------------------------------------------------------------ *)

let ty_tag = function
  | Types.Tint -> "i"
  | Types.Tflt -> "f"
  | Types.Tvoid -> "v"
  | Types.Tptr _ -> "p"

let rec add_ty_shape buf = function
  | Types.Tptr t -> Buffer.add_char buf 'p'; add_ty_shape buf t
  | t -> Buffer.add_string buf (ty_tag t)

let binop_tag = function
  | Sir.Add -> "+" | Sir.Sub -> "-" | Sir.Mul -> "*" | Sir.Div -> "/"
  | Sir.Rem -> "%" | Sir.Lt -> "<" | Sir.Le -> "<=" | Sir.Gt -> ">"
  | Sir.Ge -> ">=" | Sir.Eq -> "==" | Sir.Ne -> "!=" | Sir.Band -> "&"
  | Sir.Bor -> "|" | Sir.Bxor -> "^" | Sir.Shl -> "<<" | Sir.Shr -> ">>"

let unop_tag = function
  | Sir.Neg -> "neg" | Sir.Lnot -> "not" | Sir.I2f -> "i2f" | Sir.F2i -> "f2i"

(* [expr_shape], appended to [buf] *)
let rec add_shape buf syms (e : Sir.expr) =
  match e with
  | Sir.Const (Sir.Cint i) -> Textio.add_int buf i
  | Sir.Const (Sir.Cflt f) -> Printf.bprintf buf "%h" f
  | Sir.Lod v -> Buffer.add_string buf (Symtab.orig syms v).Symtab.vname
  | Sir.Ilod (t, a, _) ->
    Buffer.add_char buf '*';
    add_ty_shape buf t;
    Buffer.add_char buf '(';
    add_shape buf syms a;
    Buffer.add_char buf ')'
  | Sir.Lda v ->
    Buffer.add_char buf '&';
    Buffer.add_string buf (Symtab.orig syms v).Symtab.vname
  | Sir.Unop (o, _, e) ->
    Buffer.add_string buf (unop_tag o);
    Buffer.add_char buf '(';
    add_shape buf syms e;
    Buffer.add_char buf ')'
  | Sir.Binop (o, _, a, b) ->
    Buffer.add_char buf '(';
    add_shape buf syms a;
    Buffer.add_string buf (binop_tag o);
    add_shape buf syms b;
    Buffer.add_char buf ')'

(** Canonical shape of an expression: variable names (of the original,
    un-versioned variable), no site ids, fully parenthesized.  Two
    references with equal shapes compute the same address from the same
    named inputs — the stable identity an edited source preserves. *)
let expr_shape syms e =
  let buf = Buffer.create 32 in
  add_shape buf syms e;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Indexing a program                                                  *)
(* ------------------------------------------------------------------ *)

type index = {
  by_key : (t, int) Hashtbl.t;       (** key → current site id *)
  by_site : (int, t) Hashtbl.t;      (** current site id → key *)
  func_digest : (string, string) Hashtbl.t;
      (** function name → body digest (hex), for edge-profile rebinding *)
}

let find ix key = Hashtbl.find_opt ix.by_key key
let key_of_site ix site = Hashtbl.find_opt ix.by_site site
let digest_of_func ix f = Hashtbl.find_opt ix.func_digest f

(** Canonical body rendering for the per-function digest: every statement
    kind, expression shape and terminator, in layout order.  Site ids and
    variable ids are excluded, so the digest is invariant under edits to
    *other* functions. *)
let func_body_string syms (f : Sir.func) =
  let buf = Buffer.create 1024 in
  let str = Buffer.add_string buf and chr = Buffer.add_char buf in
  let int = Textio.add_int buf in
  let shape = add_shape buf syms in
  Vec.iter
    (fun (b : Sir.bb) ->
      chr 'b';
      int b.Sir.bid;
      chr ':';
      List.iter
        (fun (s : Sir.stmt) ->
          (match s.Sir.kind with
           | Sir.Stid (v, e) ->
             str "tid ";
             str (Symtab.orig syms v).Symtab.vname;
             chr '=';
             shape e
           | Sir.Istr (t, a, v, _) ->
             str "istr ";
             add_ty_shape buf t;
             chr ' ';
             shape a;
             str "<-";
             shape v
           | Sir.Call c ->
             str "call ";
             str c.Sir.callee;
             chr '/';
             int (List.length c.Sir.args);
             List.iter (fun a -> chr ' '; shape a) c.Sir.args
           | Sir.Snop -> str "nop");
          chr ';')
        b.Sir.stmts;
      (match b.Sir.term with
       | Sir.Tgoto t -> str "goto "; int t
       | Sir.Tcond (e, t, el) ->
         str "cond ";
         shape e;
         chr ' ';
         int t;
         chr ' ';
         int el
       | Sir.Tret None -> str "ret"
       | Sir.Tret (Some e) -> str "ret "; shape e);
      chr '\n')
    f.Sir.fblocks;
  Buffer.contents buf

(** Build the key index of a (freshly lowered, unoptimized) program.
    Sites are visited in layout order — functions in [func_order], blocks
    by id, statements in list order, expressions left-to-right — so
    ordinals are deterministic and identical across recompiles of the
    same source. *)
let index (p : Sir.prog) : index =
  let syms = p.Sir.syms in
  let ix =
    { by_key = Hashtbl.create 256; by_site = Hashtbl.create 256;
      func_digest = Hashtbl.create 16 }
  in
  let ords : (string * Sir.site_kind * string, int) Hashtbl.t =
    Hashtbl.create 256
  in
  let add fname kind shape site =
    let okey = (fname, kind, shape) in
    let ord =
      match Hashtbl.find_opt ords okey with Some n -> n | None -> 0
    in
    Hashtbl.replace ords okey (ord + 1);
    let key = { sk_func = fname; sk_kind = kind; sk_shape = shape;
                sk_ord = ord } in
    Hashtbl.replace ix.by_key key site;
    Hashtbl.replace ix.by_site site key
  in
  Sir.iter_funcs
    (fun f ->
      let fname = f.Sir.fname in
      (* expression iloads, outermost-first left-to-right *)
      let rec expr_sites (e : Sir.expr) =
        match e with
        | Sir.Const _ | Sir.Lod _ | Sir.Lda _ -> ()
        | Sir.Ilod (_, a, site) ->
          add fname Sir.Kiload (expr_shape syms a) site;
          expr_sites a
        | Sir.Unop (_, _, x) -> expr_sites x
        | Sir.Binop (_, _, a, b) -> expr_sites a; expr_sites b
      in
      Vec.iter
        (fun (b : Sir.bb) ->
          List.iter
            (fun (s : Sir.stmt) ->
              (match s.Sir.kind with
               | Sir.Istr (_, addr, _, site) ->
                 add fname Sir.Kistore (expr_shape syms addr) site
               | Sir.Call c ->
                 add fname Sir.Kcall
                   (c.Sir.callee ^ "/" ^ string_of_int (List.length c.Sir.args))
                   c.Sir.csite
               | Sir.Stid _ | Sir.Snop -> ());
              List.iter expr_sites (Sir.stmt_exprs s.Sir.kind))
            b.Sir.stmts;
          List.iter expr_sites (Sir.term_exprs b.Sir.term))
        f.Sir.fblocks;
      Hashtbl.replace ix.func_digest fname
        (Digest.to_hex (Digest.string (func_body_string syms f))))
    p;
  ix

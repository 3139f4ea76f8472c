(** Pretty-printing of SIR programs, including HSSA annotations
    (phi nodes, mu/chi lists, speculation flags and marks). *)

open Sir

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | Band -> "&" | Bor -> "|" | Bxor -> "^" | Shl -> "<<" | Shr -> ">>"

let unop_str = function
  | Neg -> "-" | Lnot -> "!" | I2f -> "(float)" | F2i -> "(int)"

let pp_var syms fmt v = Fmt.string fmt (Symtab.name syms v)

(* Expressions print into a buffer, not through Format: address keys
   (heuristic rule 1, store promotion) print one per memory reference.
   [use] names the variable a load reads. *)
let rec add_ty buf = function
  | Types.Tint -> Buffer.add_string buf "int"
  | Types.Tflt -> Buffer.add_string buf "float"
  | Types.Tptr t -> add_ty buf t; Buffer.add_char buf '*'
  | Types.Tvoid -> Buffer.add_string buf "void"

let rec add_expr syms use buf = function
  | Const (Cint i) -> Buffer.add_string buf (string_of_int i)
  | Const (Cflt f) -> Buffer.add_string buf (Printf.sprintf "%g" f)
  | Lod v -> Buffer.add_string buf (use v)
  | Ilod (t, a, s) ->
    Buffer.add_string buf "*{";
    add_ty buf t;
    Buffer.add_char buf '@';
    Buffer.add_string buf (string_of_int s);
    Buffer.add_string buf "}(";
    add_expr syms use buf a;
    Buffer.add_char buf ')'
  | Lda v -> Buffer.add_char buf '&'; Buffer.add_string buf (Symtab.name syms v)
  | Unop (o, _, e) ->
    Buffer.add_string buf (unop_str o);
    Buffer.add_char buf '(';
    add_expr syms use buf e;
    Buffer.add_char buf ')'
  | Binop (o, _, a, b) ->
    Buffer.add_char buf '(';
    add_expr syms use buf a;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (binop_str o);
    Buffer.add_char buf ' ';
    add_expr syms use buf b;
    Buffer.add_char buf ')'

let expr_string syms use e =
  let buf = Buffer.create 32 in
  add_expr syms use buf e;
  Buffer.contents buf

let expr_to_string syms e = expr_string syms (Symtab.name syms) e

(** Deversioned address key: the text of [expr_to_string] with every
    load naming its original variable. *)
let expr_key syms e =
  expr_string syms (fun v -> (Symtab.orig syms v).Symtab.vname) e

let pp_expr syms fmt e = Fmt.string fmt (expr_to_string syms e)

let pp_mu syms fmt m =
  Fmt.pf fmt "mu%s(%a)" (if m.mu_spec then "s" else "") (pp_var syms) m.mu_opnd

let pp_chi syms fmt c =
  Fmt.pf fmt "%a <- chi%s(%a)" (pp_var syms) c.chi_lhs
    (if c.chi_spec then "s" else "") (pp_var syms) c.chi_rhs

let mark_str = function
  | Mnone -> ""
  | Madv -> " [ld.a]"
  | Mchk -> " [ld.c]"
  | Mcspec -> " [ld.s]"
  | Msa -> " [ld.sa]"

let pp_stmt syms fmt s =
  let pp_lists fmt () =
    if s.mark = Mchk && s.check_of >= 0 then
      Fmt.pf fmt " (covers s%d)" s.check_of;
    (match s.deopt with
     | None -> ()
     | Some d ->
       Fmt.pf fmt " (deopt s%d [%a])" d.dp_target
         (Fmt.list ~sep:Fmt.sp Fmt.int) d.dp_vars);
    if s.mus <> [] then
      Fmt.pf fmt "  {%a}" (Fmt.list ~sep:Fmt.comma (pp_mu syms)) s.mus;
    if s.chis <> [] then
      Fmt.pf fmt "  {%a}" (Fmt.list ~sep:Fmt.comma (pp_chi syms)) s.chis
  in
  (match s.kind with
   | Stid (v, e) ->
     Fmt.pf fmt "%a = %a%s" (pp_var syms) v (pp_expr syms) e (mark_str s.mark)
   | Istr (t, a, v, site) ->
     Fmt.pf fmt "*{%a@@%d}(%a) = %a" Types.pp t site (pp_expr syms) a
       (pp_expr syms) v
   | Call { callee; args; ret; _ } ->
     (match ret with
      | Some r -> Fmt.pf fmt "%a = " (pp_var syms) r
      | None -> ());
     Fmt.pf fmt "%s(%a)" callee
       (Fmt.list ~sep:Fmt.comma (pp_expr syms)) args
   | Snop -> Fmt.string fmt "nop");
  pp_lists fmt ()

let pp_phi syms fmt p =
  Fmt.pf fmt "%a = phi(%a)%s" (pp_var syms) p.phi_lhs
    (Fmt.array ~sep:Fmt.comma (pp_var syms)) p.phi_args
    (if p.phi_live then "" else " [dead]")

let pp_term syms fmt = function
  | Tgoto b -> Fmt.pf fmt "goto B%d" b
  | Tcond (e, t, e') -> Fmt.pf fmt "if %a then B%d else B%d" (pp_expr syms) e t e'
  | Tret None -> Fmt.string fmt "ret"
  | Tret (Some e) -> Fmt.pf fmt "ret %a" (pp_expr syms) e

let pp_bb syms fmt b =
  Fmt.pf fmt "@[<v2>B%d:  (preds %a, freq %.0f)@ " b.bid
    (Fmt.list ~sep:Fmt.comma Fmt.int) b.preds b.freq;
  List.iter (fun p -> Fmt.pf fmt "%a@ " (pp_phi syms) p) b.phis;
  List.iter
    (fun s ->
      match s.kind with
      | Snop when s.chis = [] && s.mus = [] -> ()
      | _ -> Fmt.pf fmt "%a@ " (pp_stmt syms) s)
    b.stmts;
  Fmt.pf fmt "%a@]" (pp_term syms) b.term

let pp_func syms fmt f =
  Fmt.pf fmt "@[<v>func %s(%a) : %a {@ " f.fname
    (Fmt.list ~sep:Fmt.comma (pp_var syms)) f.fformals Types.pp f.fret;
  Vec.iter (fun b -> Fmt.pf fmt "%a@ " (pp_bb syms) b) f.fblocks;
  Fmt.pf fmt "}@]"

let pp_prog fmt p =
  List.iter
    (fun g ->
      let v = Symtab.var p.syms g in
      Fmt.pf fmt "global %s%a %s[%d]@."
        (if v.Symtab.vsecret then "secret " else "")
        Types.pp v.Symtab.vty v.Symtab.vname v.Symtab.vsize)
    p.globals;
  iter_funcs (fun f -> Fmt.pf fmt "%a@.@." (pp_func p.syms) f) p

let func_to_string syms f = Fmt.str "%a" (pp_func syms) f
let prog_to_string p = Fmt.str "%a" pp_prog p
let stmt_to_string syms s = Fmt.str "%a" (pp_stmt syms) s

(** Recursive-descent parser for the mini-C frontend.

    Menhir is not available in this environment, and the grammar is small
    enough that a hand-written parser with explicit precedence climbing is
    the simpler, idiomatic choice. *)

open Ast

type state = { toks : Lexer.lexeme array; mutable pos : int }

let cur st = st.toks.(st.pos)
let line st = (cur st).Lexer.line
let advance st = st.pos <- st.pos + 1

let peek_tok st = (cur st).Lexer.tok

let fail st what =
  error (line st) "expected %s, found %s" what
    (Lexer.token_str (peek_tok st))

let eat_punct st p =
  match peek_tok st with
  | Lexer.Tpunct q when q = p -> advance st
  | _ -> fail st (Printf.sprintf "%S" p)

let eat_ident st =
  match peek_tok st with
  | Lexer.Tident s -> advance st; s
  | _ -> fail st "identifier"

let is_punct st p =
  match peek_tok st with Lexer.Tpunct q -> q = p | _ -> false

let is_kw st k = match peek_tok st with Lexer.Tkw q -> q = k | _ -> false

let accept_punct st p = if is_punct st p then (advance st; true) else false

let accept_kw st k = if is_kw st k then (advance st; true) else false

(* ---- types ---- *)

let base_ty st =
  match peek_tok st with
  | Lexer.Tkw "int" -> advance st; Some Aint
  | Lexer.Tkw "float" -> advance st; Some Aflt
  | _ -> None

let rec ptr_suffix st t = if accept_punct st "*" then ptr_suffix st (Aptr t) else t

let starts_type st = is_kw st "int" || is_kw st "float"

let parse_ty st =
  match base_ty st with
  | Some t -> ptr_suffix st t
  | None -> fail st "type"

(* ---- expressions: precedence climbing ---- *)

(* Precedence levels, loosest first. *)
let binop_prec = function
  | "||" -> 1 | "&&" -> 2
  | "|" -> 3 | "^" -> 4 | "&" -> 5
  | "==" | "!=" -> 6
  | "<" | "<=" | ">" | ">=" -> 7
  | "<<" | ">>" -> 8
  | "+" | "-" -> 9
  | "*" | "/" | "%" -> 10
  | _ -> -1

let rec parse_expr st = parse_bin st 1

and parse_bin st min_prec =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match peek_tok st with
    | Lexer.Tpunct p when binop_prec p >= min_prec ->
      let prec = binop_prec p in
      let ln = line st in
      advance st;
      let rhs = parse_bin st (prec + 1) in
      lhs := Ebin (ln, p, !lhs, rhs)
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary st =
  let ln = line st in
  match peek_tok st with
  | Lexer.Tpunct "-" -> advance st; Eun (ln, "-", parse_unary st)
  | Lexer.Tpunct "!" -> advance st; Eun (ln, "!", parse_unary st)
  | Lexer.Tpunct "*" -> advance st; Eun (ln, "*", parse_unary st)
  | Lexer.Tpunct "&" -> advance st; Eun (ln, "&", parse_unary st)
  | Lexer.Tpunct "(" when starts_type_at st 1 ->
    (* cast: "(" type ")" unary *)
    advance st;
    let t = parse_ty st in
    eat_punct st ")";
    Ecast (ln, t, parse_unary st)
  | _ -> parse_postfix st

and starts_type_at st k =
  match st.toks.(st.pos + k).Lexer.tok with
  | Lexer.Tkw ("int" | "float") -> true
  | _ -> false

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    let ln = line st in
    if is_punct st "[" then begin
      advance st;
      let i = parse_expr st in
      eat_punct st "]";
      e := Eidx (ln, !e, i)
    end
    else continue_ := false
  done;
  !e

and parse_primary st =
  let ln = line st in
  match peek_tok st with
  | Lexer.Tint_lit i -> advance st; Eint (ln, i)
  | Lexer.Tflt_lit f -> advance st; Eflt (ln, f)
  | Lexer.Tident name ->
    advance st;
    if is_punct st "(" then begin
      advance st;
      let args = parse_args st in
      Ecall (ln, name, args)
    end
    else Evar (ln, name)
  | Lexer.Tpunct "(" ->
    advance st;
    let e = parse_expr st in
    eat_punct st ")";
    e
  | _ -> fail st "expression"

and parse_args st =
  if accept_punct st ")" then []
  else begin
    let rec more acc =
      let e = parse_expr st in
      if accept_punct st "," then more (e :: acc)
      else begin eat_punct st ")"; List.rev (e :: acc) end
    in
    more []
  end

(* ---- statements ---- *)

let desugar_compound ln op lhs rhs =
  (* x op= e  ==>  x = x op e *)
  Sassign (ln, lhs, Ebin (ln, op, lhs, rhs))

let rec parse_stmt st =
  let ln = line st in
  if is_punct st "{" then begin
    advance st;
    let body = parse_stmts st in
    eat_punct st "}";
    Sblock body
  end
  else if is_kw st "if" then begin
    advance st;
    eat_punct st "(";
    let c = parse_expr st in
    eat_punct st ")";
    let th = parse_stmt st in
    let el = if is_kw st "else" then (advance st; Some (parse_stmt st)) else None in
    Sif (ln, c, th, el)
  end
  else if is_kw st "while" then begin
    advance st;
    eat_punct st "(";
    let c = parse_expr st in
    eat_punct st ")";
    Swhile (ln, c, parse_stmt st)
  end
  else if is_kw st "for" then begin
    advance st;
    eat_punct st "(";
    let init =
      if is_punct st ";" then None
      else if starts_type st then begin
        (* declaration in for-init: "type ident = expr" *)
        let ln2 = line st in
        let t = parse_ty st in
        let name = eat_ident st in
        eat_punct st "=";
        Some (Sdecl (ln2, t, name, None, Some (parse_expr st)))
      end
      else Some (parse_simple st)
    in
    eat_punct st ";";
    let cond = if is_punct st ";" then None else Some (parse_expr st) in
    eat_punct st ";";
    let step = if is_punct st ")" then None else Some (parse_simple st) in
    eat_punct st ")";
    Sfor (ln, init, cond, step, parse_stmt st)
  end
  else if is_kw st "return" then begin
    advance st;
    let e = if is_punct st ";" then None else Some (parse_expr st) in
    eat_punct st ";";
    Sreturn (ln, e)
  end
  else if is_kw st "break" then begin
    advance st; eat_punct st ";"; Sbreak ln
  end
  else if is_kw st "continue" then begin
    advance st; eat_punct st ";"; Scontinue ln
  end
  else if starts_type st then begin
    let t = parse_ty st in
    let name = eat_ident st in
    let size =
      if accept_punct st "[" then begin
        match peek_tok st with
        | Lexer.Tint_lit n -> advance st; eat_punct st "]"; Some n
        | _ -> fail st "array size literal"
      end
      else None
    in
    let init = if accept_punct st "=" then Some (parse_expr st) else None in
    eat_punct st ";";
    Sdecl (ln, t, name, size, init)
  end
  else begin
    let s = parse_simple st in
    eat_punct st ";";
    s
  end

(* A "simple" statement: assignment, increment, or expression. *)
and parse_simple st =
  let ln = line st in
  let lhs = parse_expr st in
  match peek_tok st with
  | Lexer.Tpunct "=" -> advance st; Sassign (ln, lhs, parse_expr st)
  | Lexer.Tpunct "+=" -> advance st; desugar_compound ln "+" lhs (parse_expr st)
  | Lexer.Tpunct "-=" -> advance st; desugar_compound ln "-" lhs (parse_expr st)
  | Lexer.Tpunct "*=" -> advance st; desugar_compound ln "*" lhs (parse_expr st)
  | Lexer.Tpunct "/=" -> advance st; desugar_compound ln "/" lhs (parse_expr st)
  | Lexer.Tpunct "++" -> advance st; desugar_compound ln "+" lhs (Eint (ln, 1))
  | Lexer.Tpunct "--" -> advance st; desugar_compound ln "-" lhs (Eint (ln, 1))
  | _ -> Sexpr (ln, lhs)

and parse_stmts st =
  let rec go acc =
    if is_punct st "}" then List.rev acc else go (parse_stmt st :: acc)
  in
  go []

(* ---- top level ---- *)

let parse_decl st =
  let ln = line st in
  (* [secret] marks a public/secret contract on a global or, inside a
     formal list, on a parameter *)
  let secret = accept_kw st "secret" in
  let ret =
    if is_kw st "void" then (advance st; None)
    else Some (parse_ty st)
  in
  let name = eat_ident st in
  if is_punct st "(" then begin
    if secret then
      error ln "secret applies to globals and parameters, not functions";
    advance st;
    let formals =
      if accept_punct st ")" then []
      else begin
        let rec more acc =
          let sec = accept_kw st "secret" in
          let t = parse_ty st in
          let n = eat_ident st in
          if accept_punct st "," then more ((t, n, sec) :: acc)
          else begin eat_punct st ")"; List.rev ((t, n, sec) :: acc) end
        in
        more []
      end
    in
    eat_punct st "{";
    let body = parse_stmts st in
    eat_punct st "}";
    Dfunc (ln, ret, name, formals, body)
  end
  else begin
    let t = match ret with
      | Some t -> t
      | None -> error ln "global variable cannot have type void"
    in
    let size =
      if accept_punct st "[" then begin
        match peek_tok st with
        | Lexer.Tint_lit n -> advance st; eat_punct st "]"; Some n
        | _ -> fail st "array size literal"
      end
      else None
    in
    eat_punct st ";";
    Dglobal (ln, t, name, size, secret)
  end

(** Parse a complete mini-C program from source text.
    Raises {!Ast.Frontend_error} on malformed input. *)
let parse (src : string) : Ast.program =
  let st = { toks = Lexer.tokenize src; pos = 0 } in
  let rec go acc =
    match peek_tok st with
    | Lexer.Teof -> List.rev acc
    | _ -> go (parse_decl st :: acc)
  in
  go []

(** Hand-written lexer for the mini-C frontend. *)

type token =
  | Tint_lit of int
  | Tflt_lit of float
  | Tident of string
  | Tkw of string
  | Tpunct of string
  | Teof

type lexeme = { tok : token; line : int }

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let word s =
  match s with
  | "int" | "float" | "void" | "if" | "else" | "while" | "for" | "return"
  | "break" | "continue" | "secret" -> Tkw s
  | _ -> Tident s

(* The punctuator spelled by [c] [d], or "" if none; a two-character
   punctuator wins over its first character. *)
let punct2 c d =
  match c, d with
  | '=', '=' -> "==" | '!', '=' -> "!=" | '<', '=' -> "<=" | '>', '=' -> ">="
  | '&', '&' -> "&&" | '|', '|' -> "||" | '<', '<' -> "<<" | '>', '>' -> ">>"
  | '+', '=' -> "+=" | '-', '=' -> "-=" | '*', '=' -> "*=" | '/', '=' -> "/="
  | '+', '+' -> "++" | '-', '-' -> "--"
  | _ -> ""

let punct1 = function
  | '+' -> "+" | '-' -> "-" | '*' -> "*" | '/' -> "/" | '%' -> "%"
  | '<' -> "<" | '>' -> ">" | '=' -> "=" | '!' -> "!" | '&' -> "&"
  | '|' -> "|" | '^' -> "^" | '(' -> "(" | ')' -> ")" | '{' -> "{"
  | '}' -> "}" | '[' -> "[" | ']' -> "]" | ';' -> ";" | ',' -> ","
  | _ -> ""

let eof = { tok = Teof; line = 0 }

(** The tokens of [src], then [Teof].  The array is sized before the
    tokens are counted, so more [Teof] entries may follow the first; a
    source needs a new array only past one token per two bytes. *)
let tokenize (src : string) : lexeme array =
  let n = String.length src in
  let toks = Vec.create ~capacity:(n / 2 + 16) eof in
  let line = ref 1 in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin incr line; incr i end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      i := !i + 2;
      let fin = ref false in
      while not !fin do
        if !i + 1 >= n then
          raise (Ast.Frontend_error (!line, "unterminated comment"))
        else if src.[!i] = '*' && src.[!i + 1] = '/' then begin
          i := !i + 2; fin := true
        end else begin
          if src.[!i] = '\n' then incr line;
          incr i
        end
      done
    end
    else if is_digit c
         || (c = '.' && !i + 1 < n && is_digit src.[!i + 1]) then begin
      let start = !i in
      let is_flt = ref false in
      while !i < n
            && (is_digit src.[!i] || src.[!i] = '.' || src.[!i] = 'e'
                || src.[!i] = 'E'
                || ((src.[!i] = '+' || src.[!i] = '-')
                    && !i > start
                    && (src.[!i - 1] = 'e' || src.[!i - 1] = 'E'))) do
        if src.[!i] = '.' || src.[!i] = 'e' || src.[!i] = 'E' then
          is_flt := true;
        incr i
      done;
      let lit () = String.sub src start (!i - start) in
      if !is_flt then
        match float_of_string_opt (lit ()) with
        | Some f -> Vec.push toks { tok = Tflt_lit f; line = !line }
        | None ->
          raise (Ast.Frontend_error
                   (!line, Printf.sprintf "malformed float literal %s" (lit ())))
      else begin
        (* only digits: the decimal value, refused past max_int *)
        let v = ref 0 in
        for k = start to !i - 1 do
          let d = Char.code src.[k] - Char.code '0' in
          if !v > (max_int - d) / 10 then
            raise (Ast.Frontend_error
                     (!line,
                      Printf.sprintf "integer literal %s out of range" (lit ())));
          v := (!v * 10) + d
        done;
        Vec.push toks { tok = Tint_lit !v; line = !line }
      end
    end
    else if is_alpha c then begin
      let start = !i in
      while !i < n && is_alnum src.[!i] do incr i done;
      Vec.push toks
        { tok = word (String.sub src start (!i - start)); line = !line }
    end
    else begin
      let p2 = if !i + 1 < n then punct2 c src.[!i + 1] else "" in
      if p2 <> "" then begin
        Vec.push toks { tok = Tpunct p2; line = !line };
        i := !i + 2
      end
      else begin
        let p1 = punct1 c in
        if p1 = "" then
          raise (Ast.Frontend_error
                   (!line, Printf.sprintf "unexpected character %C" c));
        Vec.push toks { tok = Tpunct p1; line = !line };
        incr i
      end
    end
  done;
  Vec.push toks { tok = Teof; line = !line };
  toks.Vec.data

let token_str = function
  | Tint_lit i -> string_of_int i
  | Tflt_lit f -> string_of_float f
  | Tident s -> s
  | Tkw s -> s
  | Tpunct s -> Printf.sprintf "%S" s
  | Teof -> "<eof>"

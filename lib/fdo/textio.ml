(** Token-level reader/writer helpers shared by the FDO on-disk formats
    ([specprof/1] profile stores, [specsir/2] programs inside cached
    artifacts).

    Both formats are deterministic whitespace-separated token streams: a
    token is either a bare word (no whitespace, never starts with ['"'])
    or a quoted string with a fixed escape set.  The reader is a small
    hand-rolled lexer in the style of {!Spec_driver.Bench_json}'s JSON
    reader — no external dependency, and it accepts exactly what the
    writers produce. *)

exception Error of string

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let hex = "0123456789abcdef"

(* Quote a string: double-quoted with backslash escapes for the quote,
   the backslash, newline, tab, and \xHH for other control or non-ASCII
   bytes.  Deterministic; the only quoting the reader accepts. *)
let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
        Buffer.add_string buf "\\x";
        Buffer.add_char buf hex.[Char.code c lsr 4];
        Buffer.add_char buf hex.[Char.code c land 0xf]
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

type lexer = { src : string; mutable pos : int; mutable line : int }

let make src = { src; pos = 0; line = 1 }

let fail lx msg =
  raise (Error (Printf.sprintf "line %d: %s" lx.line msg))

let rec skip_ws lx =
  if lx.pos < String.length lx.src then
    match lx.src.[lx.pos] with
    | '\n' -> lx.line <- lx.line + 1; lx.pos <- lx.pos + 1; skip_ws lx
    | ' ' | '\t' | '\r' -> lx.pos <- lx.pos + 1; skip_ws lx
    | _ -> ()

let at_eof lx =
  skip_ws lx;
  lx.pos >= String.length lx.src

let hex_val lx c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail lx "bad hex digit in \\x escape"

let quoted_body lx =
  (* positioned just after the opening quote *)
  let n = String.length lx.src in
  let buf = Buffer.create 16 in
  let rec go () =
    if lx.pos >= n then fail lx "unterminated string";
    match lx.src.[lx.pos] with
    | '"' -> lx.pos <- lx.pos + 1
    | '\\' ->
      lx.pos <- lx.pos + 1;
      if lx.pos >= n then fail lx "truncated escape";
      (match lx.src.[lx.pos] with
       | '"' -> Buffer.add_char buf '"'; lx.pos <- lx.pos + 1
       | '\\' -> Buffer.add_char buf '\\'; lx.pos <- lx.pos + 1
       | 'n' -> Buffer.add_char buf '\n'; lx.pos <- lx.pos + 1
       | 't' -> Buffer.add_char buf '\t'; lx.pos <- lx.pos + 1
       | 'x' ->
         if lx.pos + 2 >= n then fail lx "truncated \\x escape";
         let h = hex_val lx lx.src.[lx.pos + 1] in
         let l = hex_val lx lx.src.[lx.pos + 2] in
         Buffer.add_char buf (Char.chr ((h lsl 4) lor l));
         lx.pos <- lx.pos + 3
       | _ -> fail lx "bad escape");
      go ()
    | '\n' -> fail lx "newline in string"
    | c -> Buffer.add_char buf c; lx.pos <- lx.pos + 1; go ()
  in
  go ();
  Buffer.contents buf

(** Next token: a bare word or the contents of a quoted string. *)
let token lx =
  skip_ws lx;
  let n = String.length lx.src in
  if lx.pos >= n then fail lx "unexpected end of input";
  if lx.src.[lx.pos] = '"' then begin
    lx.pos <- lx.pos + 1;
    quoted_body lx
  end
  else begin
    let start = lx.pos in
    while
      lx.pos < n
      && (match lx.src.[lx.pos] with
          | ' ' | '\t' | '\r' | '\n' -> false
          | _ -> true)
    do
      lx.pos <- lx.pos + 1
    done;
    String.sub lx.src start (lx.pos - start)
  end

(** Next token, which must equal [w]. *)
let expect lx w =
  let t = token lx in
  if t <> w then fail lx (Printf.sprintf "expected %S, got %S" w t)

let int_tok lx =
  let t = token lx in
  match int_of_string_opt t with
  | Some i -> i
  | None -> fail lx (Printf.sprintf "expected integer, got %S" t)

(** Floats are written with [%h] (hex-float) so they round-trip exactly. *)
let float_tok lx =
  let t = token lx in
  match float_of_string_opt t with
  | Some f -> f
  | None -> fail lx (Printf.sprintf "expected float, got %S" t)

let bool_tok lx =
  match token lx with
  | "0" -> false
  | "1" -> true
  | t -> fail lx (Printf.sprintf "expected 0 or 1, got %S" t)

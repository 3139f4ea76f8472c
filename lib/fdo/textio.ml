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
let add_quoted buf s =
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
  Buffer.add_char buf '"'

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  add_quoted buf s;
  Buffer.contents buf

(* the decimal digits of [n >= 0] *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* [string_of_int], written in place *)
let add_int buf i =
  if i >= 0 then add_nat buf i
  else if i = min_int then Buffer.add_string buf (string_of_int i)
  else begin
    Buffer.add_char buf '-';
    add_nat buf (-i)
  end

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

let escaped_body lx =
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

let quoted_body lx =
  (* positioned just after the opening quote; a body without escapes is
     its bytes as they stand *)
  let n = String.length lx.src in
  let stop = ref lx.pos in
  while
    !stop < n
    && (match lx.src.[!stop] with '"' | '\\' | '\n' -> false | _ -> true)
  do
    incr stop
  done;
  if !stop < n && lx.src.[!stop] = '"' then begin
    let s = String.sub lx.src lx.pos (!stop - lx.pos) in
    lx.pos <- !stop + 1;
    s
  end
  else escaped_body lx

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

(* In-place fast paths.  Each one reads a plain token where it stands,
   without a substring; anything else (a quoted token, a sign or base
   prefix, a digit run long enough to overflow, a mismatch) goes back to
   [token], so what is accepted and every error message stay the same.
   The scans use loops, not local closures, which would allocate, and
   compare ints with typed operators, not the polymorphic [min]. *)

let[@inline] is_blank c = c = ' ' || c = '\n' || c = '\t' || c = '\r'

(* where the bare word at [lx.pos] ends: the next blank or the end *)
let word_end lx =
  let src = lx.src in
  let n = String.length src in
  let e = ref lx.pos in
  while !e < n && not (is_blank src.[!e]) do incr e done;
  !e

(* [w] (non-empty, no blank, no leading quote) is the word at [lx.pos],
   which ends at [e] *)
let word_is lx e w =
  let k = String.length w and p = lx.pos in
  e - p = k
  && lx.src.[p] = w.[0]
  && begin
    let j = ref 1 in
    while !j < k && lx.src.[p + !j] = w.[!j] do incr j done;
    !j = k
  end

(** Next token, which must equal [w]. *)
let expect lx w =
  skip_ws lx;
  if String.length w > 0 && w.[0] <> '"' && word_is lx (word_end lx) w then
    lx.pos <- lx.pos + String.length w
  else
    let t = token lx in
    if t <> w then fail lx (Printf.sprintf "expected %S, got %S" w t)

let int_tok lx =
  skip_ws lx;
  let src = lx.src and p = lx.pos in
  let n = String.length src in
  let neg = p < n && src.[p] = '-' in
  let start = if neg then p + 1 else p in
  (* at most 18 digits, which cannot overflow *)
  let stop = if start + 18 < n then start + 18 else n in
  let i = ref start and v = ref 0 in
  while !i < stop && src.[!i] >= '0' && src.[!i] <= '9' do
    v := (!v * 10) + Char.code src.[!i] - Char.code '0';
    incr i
  done;
  if !i > start && (!i = n || is_blank src.[!i]) then begin
    lx.pos <- !i;
    if neg then - !v else !v
  end
  else
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
  skip_ws lx;
  let p = lx.pos in
  if p < String.length lx.src
     && (lx.src.[p] = '0' || lx.src.[p] = '1')
     && (p + 1 = String.length lx.src || is_blank lx.src.[p + 1])
  then begin
    lx.pos <- p + 1;
    lx.src.[p] = '1'
  end
  else
    match token lx with
    | "0" -> false
    | "1" -> true
    | t -> fail lx (Printf.sprintf "expected 0 or 1, got %S" t)

(* the index of the bare word at [lx.pos] in [tags], consumed, or -1 *)
let here lx tags =
  let e = word_end lx in
  let len = e - lx.pos and n = Array.length tags in
  let k = ref 0 in
  if len > 0 && lx.src.[lx.pos] <> '"' then
    while
      !k < n
      && (String.length (fst tags.(!k)) <> len
          || not (word_is lx e (fst tags.(!k))))
    do
      incr k
    done
  else k := n;
  if !k = n then -1
  else begin
    lx.pos <- e;
    !k
  end

(** The value paired with the next token in [tags] (bare words), or
    [other lx t] for any other token [t]. *)
let tag_or lx tags other =
  skip_ws lx;
  let k = here lx tags in
  if k >= 0 then snd tags.(k)
  else
    let t = token lx in
    match List.assoc_opt t (Array.to_list tags) with
    | Some v -> v
    | None -> other lx t

(** The value paired with the next token in [tags] (bare words); [what]
    starts the error message when the token is none of them.  (The
    failure closure is built on every call; building it only off the
    in-place path made no measurable difference to [Sir_io.read].) *)
let tag lx ~what tags =
  tag_or lx tags (fun lx t -> fail lx (Printf.sprintf "%s %S" what t))

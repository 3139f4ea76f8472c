(* Tests for the mini-C frontend: lexer, parser, typed lowering. *)

open Spec_ir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let compile = Lower.compile

(* the tokens of [src] up to and including the first [Teof] *)
let tokens src =
  let rec upto acc = function
    | [] -> List.rev acc
    | ({ Lexer.tok = Lexer.Teof; _ } as t) :: _ -> List.rev (t :: acc)
    | t :: rest -> upto (t :: acc) rest
  in
  upto [] (Array.to_list (Lexer.tokenize src))

let test_lex_basic () =
  let toks = tokens "int x = 42; // comment\nfloat y;" in
  check_int "token count" 9 (List.length toks);
  match toks with
  | { tok = Lexer.Tkw "int"; line = 1 } :: { tok = Lexer.Tident "x"; _ } :: _ ->
    ()
  | _ -> Alcotest.fail "unexpected token stream"

let test_lex_floats () =
  let toks = tokens "1.5 2e3 0.25 7" in
  let values =
    List.filter_map
      (function
        | { Lexer.tok = Lexer.Tflt_lit f; _ } -> Some (`F f)
        | { Lexer.tok = Lexer.Tint_lit i; _ } -> Some (`I i)
        | _ -> None)
      toks
  in
  Alcotest.(check (list (of_pp Fmt.nop)))
    "literals" [ `F 1.5; `F 2000.; `F 0.25; `I 7 ] values

let test_lex_puncts () =
  let toks = tokens "a<=b==c&&d++ e+ +f" in
  let ps =
    List.filter_map
      (function { Lexer.tok = Lexer.Tpunct p; _ } -> Some p | _ -> None)
      toks
  in
  Alcotest.(check (list string)) "puncts" [ "<="; "=="; "&&"; "++"; "+"; "+" ] ps

let test_lex_comments () =
  let toks = tokens "a /* multi\nline */ b" in
  check_int "two idents + eof" 3 (List.length toks);
  (match List.nth toks 1 with
   | { Lexer.tok = Lexer.Tident "b"; line = 2 } -> ()
   | _ -> Alcotest.fail "comment handling broke line counting")

let test_lex_error () =
  Alcotest.check_raises "bad char" (Ast.Frontend_error (1, "unexpected character '$'"))
    (fun () -> ignore (Lexer.tokenize "$"))

let test_lex_bad_literals () =
  List.iter
    (fun (lit, msg) ->
      Alcotest.check_raises lit (Ast.Frontend_error (2, msg)) (fun () ->
          ignore (compile ("int main() {\n  int x; x = " ^ lit ^ ";\n  return x;\n}"))))
    [ ("99999999999999999999", "integer literal 99999999999999999999 out of range");
      ("4611686018427387904", "integer literal 4611686018427387904 out of range");
      ("1e", "malformed float literal 1e");
      ("1.2.3", "malformed float literal 1.2.3") ];
  match tokens "4611686018427387903" with
  | [ { Lexer.tok = Lexer.Tint_lit n; _ }; { Lexer.tok = Lexer.Teof; _ } ] ->
    check_int "max_int literal" max_int n
  | _ -> Alcotest.fail "max_int literal"

let test_parse_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  let ast = Parser.parse "int f() { return 1 + 2 * 3; }" in
  match ast with
  | [ Ast.Dfunc (_, _, "f", [], [ Ast.Sreturn (_, Some e) ]) ] ->
    (match e with
     | Ast.Ebin (_, "+", Ast.Eint (_, 1), Ast.Ebin (_, "*", _, _)) -> ()
     | _ -> Alcotest.fail "wrong precedence")
  | _ -> Alcotest.fail "unexpected AST shape"

let test_parse_assoc () =
  (* 10 - 3 - 2 parses as (10 - 3) - 2 *)
  let ast = Parser.parse "int f() { return 10 - 3 - 2; }" in
  match ast with
  | [ Ast.Dfunc (_, _, _, _, [ Ast.Sreturn (_, Some e) ]) ] ->
    (match e with
     | Ast.Ebin (_, "-", Ast.Ebin (_, "-", _, _), Ast.Eint (_, 2)) -> ()
     | _ -> Alcotest.fail "wrong associativity")
  | _ -> Alcotest.fail "unexpected AST shape"

let test_parse_error_reports_line () =
  (try
     ignore (Parser.parse "int f() {\n  return 1 +; \n}");
     Alcotest.fail "expected parse error"
   with Ast.Frontend_error (line, _) -> check_int "error line" 2 line)

let test_lower_simple () =
  let p = compile "int g; int main() { g = 3; return g; }" in
  let f = Sir.find_func p "main" in
  check_int "one global" 1 (List.length p.Sir.globals);
  check_bool "global is memory resident" true
    (Symtab.is_mem p.Sir.syms (List.hd p.Sir.globals));
  check_int "single block" 1 (Sir.n_blocks f)

let test_lower_if_shape () =
  let p = compile "int main(){ int x; x = 1; if (x) { x = 2; } return x; }" in
  let f = Sir.find_func p "main" in
  (* entry, then, join *)
  check_int "three blocks" 3 (Sir.n_blocks f);
  let entry = Sir.block f 0 in
  (match entry.Sir.term with
   | Sir.Tcond (_, t, e) ->
     check_bool "distinct targets" true (t <> e)
   | _ -> Alcotest.fail "entry should end in a conditional")

let test_lower_while_shape () =
  let p =
    compile "int main(){ int i; i = 0; while (i < 10) { i = i + 1; } return i; }"
  in
  let f = Sir.find_func p "main" in
  Sir.recompute_preds f;
  (* entry -> head; head -> body|exit; body -> head *)
  check_int "four blocks" 4 (Sir.n_blocks f);
  let head = Sir.block f 1 in
  check_int "loop head has two preds" 2 (List.length head.Sir.preds)

let test_lower_for_with_break () =
  let p =
    compile
      "int main(){ int s; s = 0; \
       for (int i = 0; i < 10; i = i + 1) { \
         if (i == 5) break; \
         s = s + i; } \
       return s; }"
  in
  let f = Sir.find_func p "main" in
  Sir.recompute_preds f;
  (* the exit block must have >= 2 preds: normal exit + break *)
  let exits =
    List.filter
      (fun b ->
        match b.Sir.term with Sir.Tret _ -> true | _ -> false)
      (Vec.to_list f.Sir.fblocks)
  in
  check_int "single return block" 1 (List.length exits);
  check_bool "break reaches exit" true
    (List.length (List.hd exits).Sir.preds >= 2)

let test_lower_address_taken () =
  let p = compile "int main(){ int x; int* p; p = &x; *p = 4; return x; }" in
  let syms = p.Sir.syms in
  let x =
    let found = ref None in
    Symtab.iter (fun v -> if v.Symtab.vname = "x" then found := Some v) syms;
    Option.get !found
  in
  check_bool "x address taken" true x.Symtab.vaddr_taken;
  check_bool "x memory resident" true (Symtab.is_mem syms x.Symtab.vid)

let test_lower_array_decay () =
  let p = compile "int a[10]; int main(){ a[3] = 7; return a[3]; }" in
  let f = Sir.find_func p "main" in
  let entry = Sir.block f 0 in
  (match entry.Sir.stmts with
   | [ { Sir.kind = Sir.Istr (Types.Tint, Sir.Binop (Sir.Add, _, Sir.Lda _, _), _, _); _ } ] ->
     ()
   | _ -> Alcotest.fail "array store should lower to Istr(base + scaled idx)")

let test_lower_ptr_arith_scaled () =
  let p = compile "int main(int n){ int* p; p = (int*)malloc(80); p = p + 3; return 0; }" in
  let f = Sir.find_func p "main" in
  let entry = Sir.block f 0 in
  let found_scaled = ref false in
  List.iter
    (fun s ->
      List.iter
        (Sir.iter_subexprs (function
          | Sir.Binop (Sir.Add, _, _, Sir.Const (Sir.Cint 24)) ->
            found_scaled := true
          | _ -> ()))
        (Sir.stmt_exprs s.Sir.kind))
    entry.Sir.stmts;
  check_bool "p + 3 scales to +24 bytes" true !found_scaled

let test_lower_float_coercion () =
  let p = compile "float f; int main(){ f = 1; return 0; }" in
  let f = Sir.find_func p "main" in
  let entry = Sir.block f 0 in
  (match entry.Sir.stmts with
   | [ { Sir.kind = Sir.Stid (_, Sir.Unop (Sir.I2f, Types.Tflt, _)); _ } ] -> ()
   | _ -> Alcotest.fail "int->float coercion not inserted")

let test_lower_type_errors () =
  let expect_err src =
    try
      ignore (compile src);
      Alcotest.fail "expected a frontend error"
    with Ast.Frontend_error _ -> ()
  in
  expect_err "int main(){ int x; return *x; }";       (* deref non-pointer *)
  expect_err "int main(){ return y; }";                (* undefined var *)
  expect_err "int main(){ return foo(); }";            (* undefined fn *)
  expect_err "int main(){ print_int(1, 2); return 0; }"; (* arity *)
  expect_err "int a[4]; int main(){ a = 0; return 0; }"; (* assign array *)
  expect_err "void main(){ return 3; }"                (* void returns value *)

let test_lower_unreachable_pruned () =
  let p = compile "int main(){ return 1; int x; x = 2; return x; }" in
  let f = Sir.find_func p "main" in
  check_int "dead code pruned" 1 (Sir.n_blocks f)

let test_lower_sites_registered () =
  let p = compile "int main(int n){ int* p; p = (int*)malloc(8); *p = 1; return *p; }" in
  let stores =
    Hashtbl.fold
      (fun _ (si : Sir.site_info) acc ->
        if si.Sir.si_kind = Sir.Kistore then acc + 1 else acc)
      p.Sir.sites 0
  in
  let loads =
    Hashtbl.fold
      (fun _ (si : Sir.site_info) acc ->
        if si.Sir.si_kind = Sir.Kiload then acc + 1 else acc)
      p.Sir.sites 0
  in
  check_int "one istore site" 1 stores;
  check_int "one iload site" 1 loads

let test_pp_roundtrip_smoke () =
  let p =
    compile
      "int g; int main(){ int i; for (i = 0; i < 4; i = i + 1) g = g + i; return g; }"
  in
  let s = Pp.prog_to_string p in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "pp mentions main" true (contains s "func main");
  check_bool "pp mentions loop condition" true (contains s "if")

(* [frontend_digests.txt] pins what each of the 2,000 token-level
   mutants of the kernels' train sources ({!Spec_mutate.Mutate.corpus})
   lowers to: the MD5 of the lowered program's Pp text, or the line and
   message of the frontend error it raises.  No other exception may
   escape.  On a mismatch the test
   writes the recomputed table to [frontend_digests.actual] in the
   build's test directory. *)
let mutant_row (label, src) =
  let one_line = String.map (fun c -> if c = '\n' then ' ' else c) in
  match Pp.prog_to_string (compile src) with
  | text -> Printf.sprintf "%s %s" label (Digest.to_hex (Digest.string text))
  | exception Ast.Frontend_error (line, msg) ->
    Printf.sprintf "%s error %d: %s" label line (one_line msg)
  | exception e -> Printf.sprintf "%s raised %s" label (one_line (Printexc.to_string e))

let test_mutant_digests () =
  let actual = List.map mutant_row (Spec_mutate.Mutate.corpus ~seed:1) in
  let escaped =
    List.filter (fun l -> List.nth (String.split_on_char ' ' l) 1 = "raised") actual
  in
  if escaped <> [] then
    Alcotest.failf "%d mutants escaped the frontend as exceptions, e.g. %s"
      (List.length escaped) (List.hd escaped);
  let golden =
    In_channel.with_open_bin "frontend_digests.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  if actual <> golden then begin
    Out_channel.with_open_bin "frontend_digests.actual" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let moved = List.filter (fun l -> not (List.mem l golden)) actual in
    let label l = List.hd (String.split_on_char ' ' l) in
    Alcotest.failf
      "%d of %d mutant rows moved (%d golden rows), e.g. %s; the \
       recomputed table is in frontend_digests.actual"
      (List.length moved) (List.length actual) (List.length golden)
      (String.concat ", "
         (List.map label (List.filteri (fun i _ -> i < 20) moved)))
  end

let suite =
  [ Alcotest.test_case "lex basic" `Quick test_lex_basic;
    Alcotest.test_case "lex floats" `Quick test_lex_floats;
    Alcotest.test_case "lex puncts" `Quick test_lex_puncts;
    Alcotest.test_case "lex comments" `Quick test_lex_comments;
    Alcotest.test_case "lex bad number literals" `Quick test_lex_bad_literals;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse associativity" `Quick test_parse_assoc;
    Alcotest.test_case "parse error line" `Quick test_parse_error_reports_line;
    Alcotest.test_case "lower simple" `Quick test_lower_simple;
    Alcotest.test_case "lower if shape" `Quick test_lower_if_shape;
    Alcotest.test_case "lower while shape" `Quick test_lower_while_shape;
    Alcotest.test_case "lower for+break" `Quick test_lower_for_with_break;
    Alcotest.test_case "address taken" `Quick test_lower_address_taken;
    Alcotest.test_case "array decay" `Quick test_lower_array_decay;
    Alcotest.test_case "pointer arith scaling" `Quick test_lower_ptr_arith_scaled;
    Alcotest.test_case "float coercion" `Quick test_lower_float_coercion;
    Alcotest.test_case "type errors" `Quick test_lower_type_errors;
    Alcotest.test_case "unreachable pruned" `Quick test_lower_unreachable_pruned;
    Alcotest.test_case "sites registered" `Quick test_lower_sites_registered;
    Alcotest.test_case "pp smoke" `Quick test_pp_roundtrip_smoke;
    Alcotest.test_case "mutant digests" `Quick test_mutant_digests ]

(* The SSAPRE scaling probe: one function of [n] generated source lines.
   Each line reads two distinct cells and writes a third through one
   pointer, so every load and store falls into one alias class; every
   fourth line sits under an if/else.  The pointer is chosen at run time
   between two arrays: with a single definite target the refinement
   would make every kill verdict strong and speculation would have
   nothing to skip. *)

let source n =
  let buf = Buffer.create (n * 80 + 256) in
  let size = (4 * n) + 64 in
  Printf.bprintf buf "int T[%d]; int U[%d];\n" size size;
  Buffer.add_string buf "int main() {\n  int *p; int s; int i;\n";
  Buffer.add_string buf "  seed(1);\n";
  Buffer.add_string buf "  if (rnd(2) > 0) { p = T; } else { p = U; }\n";
  Buffer.add_string buf "  s = 0; i = rnd(8);\n";
  for k = 0 to n - 1 do
    let line =
      Printf.sprintf "s = s + p[i + %d] + p[i + %d]; p[i + %d] = s;" (3 * k)
        ((3 * k) + 1)
        ((3 * k) + 2)
    in
    if k mod 4 = 3 then
      Printf.bprintf buf "  if (s > %d) { %s } else { s = s - 1; }\n" k line
    else Printf.bprintf buf "  %s\n" line
  done;
  Buffer.add_string buf "  print_int(s);\n  return 0;\n}\n";
  Buffer.contents buf

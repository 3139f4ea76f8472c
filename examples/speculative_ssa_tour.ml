(* A tour of the speculative SSA form itself: the paper's Example 1 and
   the Figure 6 "enhanced phi insertion" situation, shown as actual IR.

   Example 1: a and b are potential aliases of *p; the profile says *p
   really points to b.  The chi on b after the store *p is therefore
   flagged (chi_s, cannot be ignored) while the chi on a is a speculative
   weak update (ignorable at the price of a check).

   Run with: dune exec examples/speculative_ssa_tour.exe *)

open Spec_ir
open Spec_driver

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Example 1's shape: s1: *p = 4 with a, b in the alias class; the
   profile observes p -> b only. *)
let example1 =
  "int a; int b; \n\
   int main(){ int* p; \n\
  \  a = 1; b = 2; \n\
  \  if (rnd(10) == 99) p = &a; else p = &b;   // profile: always &b \n\
  \  *p = 4;        // chi(a) weak, chi_s(b) strong \n\
  \  int x; x = a;  // speculatively uses a's pre-store value \n\
  \  a = 4; \n\
  \  int y; y = *p; // mu(a) weak, mu_s(b) strong \n\
  \  print_int(x + y); return 0; }"

let show_ssa title src mode =
  banner title;
  let p = Lower.compile src in
  let annot = Spec_alias.Annotate.run p in
  Spec_spec.Flags.assign p annot mode;
  Sir.iter_funcs
    (fun f -> ignore (Spec_cfg.Cfg_utils.split_critical_edges f : int))
    p;
  ignore (Spec_ssa.Build_ssa.build p);
  print_endline (Pp.prog_to_string p)

let () =
  Printf.printf
    "Speculative SSA form tour — the paper's Example 1 and Figure 6.\n\
     chi/mu operands print as chi(...)/mu(...); the 's' suffix is the\n\
     speculation flag: chis(...) is highly likely and must not be ignored,\n\
     a plain chi(...) is a speculative weak update.\n";

  show_ssa "Example 1 under the traditional (nonspeculative) analysis"
    example1 Spec_spec.Flags.Nonspec;

  let prof = Pipeline.profile_of_source example1 in
  show_ssa "Example 1 under the alias profile (p always points to b)"
    example1 (Spec_spec.Flags.Profile_spec prof);

  banner "Figure 6: speculative anticipation across a merge";
  let fig6 =
    "int a[4]; int b[4]; \n\
     int main(){ int* p; int x; int y; \n\
    \  if (rnd(10) == 99) p = &a[0]; else p = &b[0]; \n\
    \  x = a[0]; \n\
    \  if (rnd(2) == 0) { *p = 1; } \n\
    \  *p = 2; \n\
    \  y = a[0];   // speculatively redundant with x = a[0] \n\
    \  print_int(x + y); return 0; }"
  in
  print_endline fig6;
  let prof6 = Pipeline.profile_of_source fig6 in
  Printf.printf "\n-- nonspeculative PRE result --\n";
  let base = Pipeline.compile_and_optimize fig6 Pipeline.Base in
  print_endline
    (Pp.func_to_string base.Pipeline.prog.Sir.syms
       (Sir.find_func base.Pipeline.prog "main"));
  Printf.printf "\n-- speculative PRE result (note [ld.a]/[ld.c]) --\n";
  let spec =
    Pipeline.compile_and_optimize fig6 (Pipeline.Spec_profile prof6)
  in
  print_endline
    (Pp.func_to_string spec.Pipeline.prog.Sir.syms
       (Sir.find_func spec.Pipeline.prog "main"));
  let out_base = Spec_prof.Vm.run base.Pipeline.prog in
  let out_spec = Spec_prof.Vm.run spec.Pipeline.prog in
  assert
    (out_base.Spec_prof.Interp.output = out_spec.Spec_prof.Interp.output);
  Printf.printf "Outputs agree: %s" out_base.Spec_prof.Interp.output

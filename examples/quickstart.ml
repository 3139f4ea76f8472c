(* Quickstart: the paper's Figure 2 end to end.

   Two loads of *p with an intervening store *q that may — but rarely
   does — alias.  Classic PRE must keep the second load; the speculative
   framework replaces it with a check load (ld.c) and turns the first one
   into an advanced load (ld.a), recovering through the ALAT if the alias
   ever materializes.

   Run with: dune exec examples/quickstart.exe *)

open Spec_ir
open Spec_driver

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

(* Figure 2's program shape: "if we know that there is a small probability
   that *p and *q will access the same memory location, the second load of
   *p can be speculatively removed". *)
let src =
  "int a[4]; int b[4]; \n\
   int main(){ int* p; int* q; int x; int y; \n\
  \  p = &a[0]; q = &b[0]; \n\
  \  if (rnd(100) == 77) q = &a[0];   // 1% real aliasing \n\
  \  x = *p;      // ld.a r32=[r31] \n\
  \  *q = 5;      // the may-alias store \n\
  \  y = *p;      // ld.c r32=[r31] \n\
  \  print_int(x + y); return 0; }"

let () =
  banner "Source (the paper's Figure 2)";
  print_endline src;

  banner "1. Lowered SIR";
  let p = Lower.compile src in
  print_endline (Pp.prog_to_string p);

  banner "2. Speculative SSA form (chi/mu lists with speculation flags)";
  let p2 = Lower.compile src in
  let annot = Spec_alias.Annotate.run p2 in
  Spec_spec.Flags.assign p2 annot Spec_spec.Flags.Heuristic_spec;
  Sir.iter_funcs
    (fun f -> ignore (Spec_cfg.Cfg_utils.split_critical_edges f : int))
    p2;
  ignore (Spec_ssa.Build_ssa.build p2);
  print_endline (Pp.prog_to_string p2);
  print_endline
    "(unflagged chi operands are speculative weak updates the PRE may \
     ignore)";

  banner "3. After speculative SSAPRE (note the [ld.a] and [ld.c] marks)";
  let r = Pipeline.compile_and_optimize src Pipeline.Spec_heuristic in
  print_endline (Pp.prog_to_string r.Pipeline.prog);

  (* lowered and list-scheduled, as [speccc run --machine] and every
     bench table run it *)
  let lower_scheduled prog =
    let mp = Spec_codegen.Codegen.lower prog in
    ignore (Spec_codegen.Schedule.run mp : Spec_codegen.Schedule.stats);
    mp
  in
  banner "4. ITL machine code (list-scheduled)";
  let mp = lower_scheduled r.Pipeline.prog in
  let f = Hashtbl.find mp.Spec_codegen.Itl.mp_funcs "main" in
  Fmt.pr "%a@." Spec_codegen.Itl.pp_mfunc f;

  banner "5. Execution: base vs speculative on the ITL machine";
  let base = Pipeline.compile_and_optimize src Pipeline.Base in
  let mb = Spec_machine.Machine.run (lower_scheduled base.Pipeline.prog) in
  let ms = Spec_machine.Machine.run mp in
  let show name (m : Spec_machine.Machine.result) =
    let perf = m.Spec_machine.Machine.perf in
    Printf.printf
      "%-11s output=%s  loads=%d checks=%d check-misses=%d cycles=%d\n" name
      (String.trim m.Spec_machine.Machine.output)
      (Spec_machine.Machine.loads_retired perf)
      perf.Spec_machine.Machine.checks
      perf.Spec_machine.Machine.check_misses perf.Spec_machine.Machine.cycles
  in
  show "base" mb;
  show "speculative" ms;
  assert (mb.Spec_machine.Machine.output = ms.Spec_machine.Machine.output);
  print_endline "\nOutputs agree; the second load of *p became a free check."

(* Speculative register promotion of stores.

   An accumulator updated through a pointer every iteration stays in a
   register for the whole loop: the memory store disappears from the hot
   path, a ld.c after each unlikely-aliasing store resynchronizes the
   register when the speculation fails, and the value is written back at
   the loop exits.

   Run with: dune exec examples/store_promotion.exe *)

open Spec_ir
open Spec_driver
open Spec_machine

(* both pointers come from one pointer table, so the baseline cannot
   prove the histogram stores miss the accumulator; the profile shows
   they always do *)
let src =
  "int* tab[2]; \n\
   int main(){ tab[0] = (int*)malloc(8); tab[1] = (int*)malloc(64); \n\
  \  int* sum; sum = tab[0]; int* hist; hist = tab[1]; \n\
  \  *sum = 0; \n\
  \  for (int k = 0; k < 8; k++) hist[k] = 0; \n\
  \  for (int i = 0; i < 5000; i++) { \n\
  \    *sum = *sum + i;            // promoted: register accumulation \n\
  \    hist[i % 8] = i;            // may-alias store: ld.c after it \n\
  \  } \n\
  \  print_int(*sum); \n\
  \  int t; t = 0; for (int k = 0; k < 8; k++) t = t + hist[k]; \n\
  \  print_int(t); return 0; }"

let () =
  print_endline "Source:";
  print_endline src;
  let baseline = Spec_prof.Vm.run (Lower.compile src) in
  let prof = Pipeline.profile_of_source src in
  let show name variant =
    let r =
      Pipeline.compile_and_optimize ~edge_profile:(Some prof) src variant
    in
    let m = Machine.run_sir r.Pipeline.prog in
    assert (m.Machine.output = baseline.Spec_prof.Interp.output);
    let p = m.Machine.perf in
    Printf.printf "%-11s cycles=%7d loads=%6d stores=%6d checks=%5d misses=%d\n"
      name p.Machine.cycles
      (Machine.loads_retired p) p.Machine.stores p.Machine.checks
      p.Machine.check_misses;
    r.Pipeline.prog
  in
  Printf.printf "\nMachine runs (all outputs bit-identical to the baseline):\n";
  let _ = show "noopt" Pipeline.Noopt in
  let _ = show "base" Pipeline.Base in
  let spec = show "speculative" Pipeline.Spec_heuristic in
  Printf.printf "\nThe hot loop after promotion (note [ld.sa]/[ld.c] and the\n\
                 write-back at the exit):\n\n";
  print_endline (Pp.func_to_string spec.Sir.syms (Sir.find_func spec "main"))

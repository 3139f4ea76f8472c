(* Tests for the scalar cleanup passes: constant folding, block-local
   copy/constant propagation, liveness DCE. *)

open Spec_ir
open Spec_driver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let run_cleanup src =
  let p = Lower.compile src in
  let st = Spec_ssapre.Cleanup.run p in
  p, st

let interp p = Spec_prof.Vm.run p

let count_stmts (p : Sir.prog) =
  let n = ref 0 in
  Sir.iter_funcs
    (fun f ->
      Vec.iter
        (fun (b : Sir.bb) -> n := !n + List.length b.Sir.stmts)
        f.Sir.fblocks)
    p;
  !n

let test_constant_folding () =
  let p, st = run_cleanup "int main(){ int x; x = 2 + 3 * 4; return x; }" in
  check_bool "folded" true (st.Spec_ssapre.Cleanup.folded >= 1);
  (match (interp p).Spec_prof.Interp.ret with
   | Spec_prof.Interp.Vint 14 -> ()
   | _ -> Alcotest.fail "wrong folded value")

let test_identities () =
  let src =
    "int main(){ int x; x = rnd(10); int y; y = x + 0; \
     int z; z = 1 * y; return z - 0; }"
  in
  let baseline = interp (Lower.compile src) in
  let p, st = run_cleanup src in
  check_bool "identities folded" true (st.Spec_ssapre.Cleanup.folded >= 3);
  check_bool "semantics kept" true
    (baseline.Spec_prof.Interp.ret = (interp p).Spec_prof.Interp.ret)

let test_copy_propagation_and_dce () =
  let src =
    "int main(){ int a; a = rnd(100); int b; b = a; int c; c = b; \
     int dead; dead = a * 3 + 7; \
     print_int(c); return 0; }"
  in
  let baseline = interp (Lower.compile src) in
  let p, st = run_cleanup src in
  check_bool "copies propagated" true (st.Spec_ssapre.Cleanup.propagated >= 2);
  check_bool "dead code removed" true (st.Spec_ssapre.Cleanup.removed >= 1);
  check_str "output kept" baseline.Spec_prof.Interp.output
    (interp p).Spec_prof.Interp.output

let test_dce_keeps_faulting_rhs () =
  (* a dead assignment whose RHS loads memory must be kept: deleting it
     would change load counters (and could suppress a fault) *)
  let src =
    "int g; int main(){ int dead; dead = g + 1; print_int(7); return 0; }"
  in
  let p, _ = run_cleanup src in
  let loads = (interp p).Spec_prof.Interp.counters.Spec_prof.Interp.mem_loads in
  check_int "load kept" 1 loads

let test_dce_keeps_stores_and_calls () =
  let src =
    "int g; \
     void bump(){ g = g + 1; } \
     int main(){ int unused; unused = 3; bump(); g = g + 2; \
     print_int(g); return 0; }"
  in
  let baseline = interp (Lower.compile src) in
  let p, _ = run_cleanup src in
  check_str "effects kept" baseline.Spec_prof.Interp.output
    (interp p).Spec_prof.Interp.output

let test_reassociation_shortens_addresses () =
  let src =
    (* (x + 2) + 3 reassociates to x + 5 *)
    "int main(){ int x; x = rnd(9); return (x + 2) + 3; }"
  in
  let baseline = interp (Lower.compile src) in
  let p, st = run_cleanup src in
  check_bool "reassociated" true (st.Spec_ssapre.Cleanup.folded >= 1);
  check_bool "semantics kept" true
    (baseline.Spec_prof.Interp.ret = (interp p).Spec_prof.Interp.ret)

let test_cleanup_in_pipeline_shrinks_code () =
  let src =
    "int a[32]; int main(){ int s; s = 0; \
     for (int i = 0; i < 32; i = i + 1) { s = s + a[i]; } \
     print_int(s); return 0; }"
  in
  let noopt = Pipeline.compile_and_optimize src Pipeline.Noopt in
  let opt = Pipeline.compile_and_optimize src Pipeline.Base in
  check_str "pipeline output intact"
    (interp noopt.Pipeline.prog).Spec_prof.Interp.output
    (interp opt.Pipeline.prog).Spec_prof.Interp.output;
  (* after SR + LFTR + cleanup the loop should not be larger than the
     unoptimized version *)
  check_bool "no code explosion" true
    (count_stmts opt.Pipeline.prog <= count_stmts noopt.Pipeline.prog + 4)

let prop_cleanup_random =
  QCheck.Test.make ~count:80 ~name:"cleanup preserves semantics"
    (QCheck.make ~print:Fun.id
       QCheck.Gen.(
         let* seed = int_range 1 1000 in
         let* c1 = int_range 0 9 in
         let* c2 = int_range 1 9 in
         let* use_dead = bool in
         return
           (Printf.sprintf
              "int a[8]; int main(){ seed(%d); int x; x = rnd(50); \
               int y; y = x; int z; z = y + %d; %s \
               for (int i = 0; i < 6; i = i + 1) a[i] = z * %d + i * 0; \
               int s; s = 0; for (int i = 0; i < 8; i++) s += a[i]; \
               print_int(s + z * 1); return 0; }"
              seed c1
              (if use_dead then "int d; d = x * 99 + 1;" else "")
              c2)))
    (fun src ->
      let baseline = interp (Lower.compile src) in
      let p, _ = run_cleanup src in
      baseline.Spec_prof.Interp.output = (interp p).Spec_prof.Interp.output)

let suite =
  [ Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "identities" `Quick test_identities;
    Alcotest.test_case "copy prop + dce" `Quick test_copy_propagation_and_dce;
    Alcotest.test_case "dce keeps loads" `Quick test_dce_keeps_faulting_rhs;
    Alcotest.test_case "dce keeps effects" `Quick test_dce_keeps_stores_and_calls;
    Alcotest.test_case "reassociation" `Quick test_reassociation_shortens_addresses;
    Alcotest.test_case "pipeline shrinks code" `Quick test_cleanup_in_pipeline_shrinks_code;
    QCheck_alcotest.to_alcotest prop_cleanup_random ]

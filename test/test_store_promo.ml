(* Tests for speculative register promotion of stores. *)

open Spec_ir
open Spec_driver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let interp p = Spec_prof.Vm.run p

let optimize ?(variant = Pipeline.Spec_heuristic) src =
  let prof = Pipeline.profile_of_source src in
  (Pipeline.compile_and_optimize ~edge_profile:(Some prof) src variant)
    .Pipeline.prog

(* accumulator through a pointer: the classic store-promotion shape *)
let acc_src =
  "int main(){ int* sum; sum = (int*)malloc(8); *sum = 0; \
   int* a; a = (int*)malloc(512); \
   for (int i = 0; i < 64; i++) a[i] = i; \
   for (int i = 0; i < 64; i++) { *sum = *sum + a[i]; } \
   print_int(*sum); return 0; }"

let test_accumulator_promoted () =
  let baseline = interp (Lower.compile acc_src) in
  let p = optimize acc_src in
  let r = interp p in
  check_str "output preserved" baseline.Spec_prof.Interp.output
    r.Spec_prof.Interp.output;
  (* the hot loop must no longer store each iteration: 64 stores gone *)
  check_bool "stores removed" true
    (r.Spec_prof.Interp.counters.Spec_prof.Interp.mem_stores
     < baseline.Spec_prof.Interp.counters.Spec_prof.Interp.mem_stores - 50)

let test_machine_agrees () =
  let baseline = interp (Lower.compile acc_src) in
  let p = optimize acc_src in
  let m = Spec_machine.Machine.run_sir p in
  check_str "machine output preserved" baseline.Spec_prof.Interp.output
    m.Spec_machine.Machine.output;
  check_bool "machine stores reduced" true
    (m.Spec_machine.Machine.perf.Spec_machine.Machine.stores < 100)

(* promotion across an unlikely-aliasing store, with real mis-speculation
   on some iterations: the ld.c after the store must resynchronize t *)
let misspec_src =
  "int main(){ int* sum; sum = (int*)malloc(8); *sum = 0; \
   int* decoy; decoy = (int*)malloc(8); \
   for (int i = 0; i < 200; i++) { \
     int* w; w = decoy; \
     if (rnd(100) < 7) w = sum; \
     *sum = *sum + i; \
     *w = 1000000 + i; \
   } \
   print_int(*sum); print_int(*decoy); return 0; }"

let test_misspeculation_resync () =
  let baseline = interp (Lower.compile misspec_src) in
  let p = optimize misspec_src in
  let r = interp p in
  check_str "interpreter output preserved" baseline.Spec_prof.Interp.output
    r.Spec_prof.Interp.output;
  let m = Spec_machine.Machine.run_sir p in
  check_str "machine output preserved" baseline.Spec_prof.Interp.output
    m.Spec_machine.Machine.output

let test_aliasing_load_blocks_promotion () =
  (* a second pointer reads the location with different syntax: the group
     must NOT be promoted (stale-memory hazard) *)
  let src =
    "int main(){ int* sum; sum = (int*)malloc(8); *sum = 0; \
     int* alias; alias = sum; \
     int observed; observed = 0; \
     for (int i = 0; i < 32; i++) { \
       *sum = *sum + i; \
       observed = observed + *alias; \
     } \
     print_int(*sum); print_int(observed); return 0; }"
  in
  let baseline = interp (Lower.compile src) in
  let p = optimize src in
  check_str "output preserved despite tempting promotion"
    baseline.Spec_prof.Interp.output (interp p).Spec_prof.Interp.output

let test_conditional_store_not_promoted () =
  (* the group store does not execute on every iteration: promoting would
     introduce a load+store of a possibly-invalid address *)
  let src =
    "int main(){ int* sum; sum = (int*)malloc(8); *sum = 5; \
     for (int i = 0; i < 16; i++) { \
       if (i > 100) { *sum = *sum + i; } \
     } \
     print_int(*sum); return 0; }"
  in
  let baseline = interp (Lower.compile src) in
  let p = optimize src in
  check_str "output preserved" baseline.Spec_prof.Interp.output
    (interp p).Spec_prof.Interp.output

let test_call_blocks_promotion () =
  let src =
    "int g; \
     void peek(int* p){ g = g + *p; } \
     int main(){ int* sum; sum = (int*)malloc(8); *sum = 0; \
     for (int i = 0; i < 16; i++) { \
       *sum = *sum + i; \
       peek(sum); \
     } \
     print_int(*sum); print_int(g); return 0; }"
  in
  let baseline = interp (Lower.compile src) in
  let p = optimize src in
  check_str "callee observes every store" baseline.Spec_prof.Interp.output
    (interp p).Spec_prof.Interp.output

let prop_store_promo_differential =
  QCheck.Test.make ~count:50
    ~name:"store promotion preserves behaviour under random aliasing"
    (QCheck.make ~print:Fun.id
       QCheck.Gen.(
         let* n = int_range 4 40 in
         let* alias_pct = int_range 0 100 in
         let* extra_load = bool in
         return
           (Printf.sprintf
              "int main(){ int* sum; sum = (int*)malloc(8); *sum = 0; \
               int* d; d = (int*)malloc(8); *d = 0; \
               for (int i = 0; i < %d; i++) { \
                 int* w; if (rnd(100) < %d) w = sum; else w = d; \
                 *sum = *sum + i; \
                 *w = *w + 100; %s \
               } \
               print_int(*sum); print_int(*d); return 0; }"
              n alias_pct
              (if extra_load then "*d = *d + 1;" else ""))))
    (fun src ->
      let baseline = interp (Lower.compile src) in
      let heur = optimize src in
      let prof = Pipeline.profile_of_source src in
      let prof_p = optimize ~variant:(Pipeline.Spec_profile prof) src in
      (interp heur).Spec_prof.Interp.output = baseline.Spec_prof.Interp.output
      && (interp prof_p).Spec_prof.Interp.output
         = baseline.Spec_prof.Interp.output
      && (Spec_machine.Machine.run_sir heur).Spec_machine.Machine.output
         = baseline.Spec_prof.Interp.output)

let suite =
  [ Alcotest.test_case "accumulator promoted" `Quick test_accumulator_promoted;
    Alcotest.test_case "machine agrees" `Quick test_machine_agrees;
    Alcotest.test_case "misspeculation resync" `Quick test_misspeculation_resync;
    Alcotest.test_case "aliasing load blocks" `Quick test_aliasing_load_blocks_promotion;
    Alcotest.test_case "conditional store blocked" `Quick test_conditional_store_not_promoted;
    Alcotest.test_case "call blocks promotion" `Quick test_call_blocks_promotion;
    QCheck_alcotest.to_alcotest prop_store_promo_differential ]

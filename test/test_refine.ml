(* Tests for the flow-sensitive pointer refinement (Figure 4's last
   stage) and the alias-likeliness threshold. *)

open Spec_ir
open Spec_cfg
open Spec_driver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let build_ssa src =
  let p = Lower.compile src in
  let _ = Spec_alias.Annotate.run p in
  Sir.iter_funcs
    (fun f -> ignore (Cfg_utils.split_critical_edges f : int))
    p;
  ignore (Spec_ssa.Build_ssa.build p);
  p

let test_resolves_address_of () =
  let p =
    build_ssa "int g; int main(){ int* q; q = &g; *q = 1; return *q; }"
  in
  let r = Spec_ssa.Refine.compute p in
  (* both the store and the load site resolve to g *)
  check_int "both sites refined" 2 (Hashtbl.length r);
  Hashtbl.iter
    (fun _ l ->
      match l with
      | Loc.Lvar v -> check_str "target is g" "g" (Symtab.name p.Sir.syms v)
      | Loc.Lheap _ -> Alcotest.fail "expected a variable target")
    r

let test_resolves_malloc () =
  let p =
    build_ssa
      "int main(){ int* q; q = (int*)malloc(16); q[1] = 5; return q[1]; }"
  in
  let r = Spec_ssa.Refine.compute p in
  check_bool "sites refined to the allocation site" true
    (Hashtbl.length r >= 2);
  Hashtbl.iter
    (fun _ l ->
      match l with
      | Loc.Lheap _ -> ()
      | Loc.Lvar _ -> Alcotest.fail "expected a heap target")
    r

let test_merge_not_resolved () =
  let p =
    build_ssa
      "int g; int h; \
       int main(){ int* q; if (rnd(2) == 0) q = &g; else q = &h; \
       *q = 1; return 0; }"
  in
  let r = Spec_ssa.Refine.compute p in
  check_int "phi-merged pointer is not definite" 0 (Hashtbl.length r)

let test_pointer_arith_resolved () =
  let p =
    build_ssa
      "int a[8]; int main(){ int* q; q = &a[2]; q = q + 3; *q = 1; \
       return a[5]; }"
  in
  let r = Spec_ssa.Refine.compute p in
  check_bool "offset pointer still resolves to a" true (Hashtbl.length r >= 1)

(* The precision payoff: a store through a refined pointer no longer
   kills loads of *other* class members, even in the nonspeculative
   baseline — no checks needed. *)
let test_refinement_sharpens_baseline () =
  let src =
    (* q and r may alias per Steensgaard (both point into {g,h}), but q is
       definitely &h here; loads of g across *q must survive in Base *)
    "int g; int h; \
     int main(){ int s; s = 0; g = 3; \
     int* q; q = &h; \
     int* r; if (rnd(2) == 5) r = &g; else r = &h; \
     *r = 9; \
     for (int i = 0; i < 50; i++) { s = s + g; *q = i; } \
     print_int(s); print_int(h); return 0; }"
  in
  let baseline = Spec_prof.Vm.run (Lower.compile src) in
  let prof = Pipeline.profile_of_source src in
  let res =
    Pipeline.compile_and_optimize ~edge_profile:(Some prof) src Pipeline.Base
  in
  let out = Spec_prof.Vm.run res.Pipeline.prog in
  check_str "output preserved" baseline.Spec_prof.Interp.output
    out.Spec_prof.Interp.output;
  (* the load of g is hoisted without any data speculation: no ld.c *)
  let marks = ref 0 and checks = ref 0 in
  Sir.iter_funcs
    (fun f ->
      Vec.iter
        (fun (b : Sir.bb) ->
          List.iter
            (fun (st : Sir.stmt) ->
              if st.Sir.mark <> Sir.Mnone then incr marks;
              if st.Sir.mark = Sir.Mchk then incr checks)
            b.Sir.stmts)
        f.Sir.fblocks)
    res.Pipeline.prog;
  check_int "no checks in the baseline" 0 !checks;
  check_bool "g's loop loads were removed" true
    (out.Spec_prof.Interp.counters.Spec_prof.Interp.mem_loads
     < baseline.Spec_prof.Interp.counters.Spec_prof.Interp.mem_loads / 2)

let test_refined_same_target_still_kills () =
  (* both sites definitely touch h: the store must still kill the load *)
  let src =
    "int h; \
     int main(){ int* q; q = &h; int x; int y; \
     x = *q; *q = 7; y = *q; print_int(x + y); return 0; }"
  in
  let r = Pipeline.compile_and_optimize src Pipeline.Spec_heuristic in
  let out = Spec_prof.Vm.run r.Pipeline.prog in
  check_str "store-forwarding semantics preserved" "7\n"
    out.Spec_prof.Interp.output

(* ---- threshold ---- *)

let test_threshold_gates_speculation () =
  let rows = Experiments.ablate_threshold ~alias_permille:30 [ 0.0; 0.2 ] in
  match rows with
  | [ (_, loads_strict, checks_strict, _, _);
      (_, loads_loose, checks_loose, misses_loose, _) ] ->
    check_int "strict threshold: no speculation" 0 checks_strict;
    check_bool "loose threshold speculates" true (checks_loose > 0);
    check_bool "loose threshold removes loads" true (loads_loose < loads_strict);
    check_bool "loose threshold mis-speculates a little" true
      (misses_loose > 0 && misses_loose * 10 < checks_loose)
  | _ -> Alcotest.fail "expected two rows"

let suite =
  [ Alcotest.test_case "resolve &x" `Quick test_resolves_address_of;
    Alcotest.test_case "resolve malloc" `Quick test_resolves_malloc;
    Alcotest.test_case "merge unresolved" `Quick test_merge_not_resolved;
    Alcotest.test_case "pointer arith resolved" `Quick test_pointer_arith_resolved;
    Alcotest.test_case "refinement sharpens baseline" `Quick test_refinement_sharpens_baseline;
    Alcotest.test_case "same target still kills" `Quick test_refined_same_target_still_kills;
    Alcotest.test_case "threshold gates speculation" `Quick test_threshold_gates_speculation ]

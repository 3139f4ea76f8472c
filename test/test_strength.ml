(* Tests for strength reduction and linear function test replacement. *)

open Spec_ir
open Spec_driver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* integer multiplications inside loop bodies (the preheader init
   legitimately keeps one multiply) *)
let count_loop_muls (p : Sir.prog) =
  let n = ref 0 in
  Sir.iter_funcs
    (fun f ->
      let dom = Spec_cfg.Dom.compute f in
      let depths = Spec_cfg.Cfg_utils.loop_depths f dom in
      Vec.iter
        (fun (b : Sir.bb) ->
          if depths.(b.Sir.bid) > 0 then begin
            let scan =
              Sir.iter_subexprs (function
                | Sir.Binop (Sir.Mul, Types.Tint, _, _) -> incr n
                | _ -> ())
            in
            List.iter
              (fun (s : Sir.stmt) ->
                List.iter scan (Sir.stmt_exprs s.Sir.kind))
              b.Sir.stmts;
            List.iter scan (Sir.term_exprs b.Sir.term)
          end)
        f.Sir.fblocks)
    p;
  !n

(* run SR alone (no PRE) on a compiled program *)
let sr_only src =
  let p = Lower.compile src in
  let stats = Spec_ssapre.Strength.run p in
  p, stats

let interp p = Spec_prof.Vm.run p

let test_basic_sr () =
  let src =
    "int a[64]; int main(){ int s; s = 0; \
     for (int i = 0; i < 64; i = i + 1) { s = s + a[i]; } \
     print_int(s); return 0; }"
  in
  let baseline = interp (Lower.compile src) in
  let p, stats = sr_only src in
  check_bool "reduced at least one multiply" true
    (stats.Spec_ssapre.Strength.reduced >= 1);
  let r = interp p in
  check_str "output preserved" baseline.Spec_prof.Interp.output
    r.Spec_prof.Interp.output;
  (* the scaled index i*8 must be gone from the loop *)
  check_int "no int multiplies remain in the loop" 0 (count_loop_muls p)

let test_lftr_removes_iv () =
  let src =
    "int a[32]; int main(){ int s; s = 0; \
     for (int i = 0; i < 32; i = i + 1) { a[i] = i + 1; } \
     for (int i = 0; i < 32; i = i + 1) { s = s + a[i]; } \
     print_int(s); return 0; }"
  in
  let baseline = interp (Lower.compile src) in
  let p, stats = sr_only src in
  check_bool "LFTR fired" true (stats.Spec_ssapre.Strength.lftr >= 1);
  check_str "output preserved" baseline.Spec_prof.Interp.output
    (interp p).Spec_prof.Interp.output

let test_sr_iv_used_elsewhere_no_lftr () =
  (* i escapes into the sum: LFTR must not remove its update *)
  let src =
    "int a[16]; int main(){ int s; s = 0; \
     for (int i = 0; i < 16; i = i + 1) { s = s + a[i] + i; } \
     print_int(s); return 0; }"
  in
  let baseline = interp (Lower.compile src) in
  let p, stats = sr_only src in
  check_int "no LFTR when the IV is live" 0 stats.Spec_ssapre.Strength.lftr;
  check_str "output preserved" baseline.Spec_prof.Interp.output
    (interp p).Spec_prof.Interp.output

let test_sr_negative_step () =
  let src =
    "int a[16]; int main(){ int s; s = 0; \
     for (int i = 15; i >= 0; i = i - 1) { s = s + a[i]; } \
     print_int(s); return 0; }"
  in
  let baseline = interp (Lower.compile src) in
  let p, stats = sr_only src in
  check_bool "negative step reduced" true
    (stats.Spec_ssapre.Strength.reduced >= 1);
  check_str "output preserved" baseline.Spec_prof.Interp.output
    (interp p).Spec_prof.Interp.output

let test_sr_nested_loops () =
  let src =
    "int m[256]; int main(){ int s; s = 0; \
     for (int i = 0; i < 16; i = i + 1) \
       for (int j = 0; j < 16; j = j + 1) \
         s = s + m[i * 16 + j]; \
     print_int(s); return 0; }"
  in
  let baseline = interp (Lower.compile src) in
  let p, stats = sr_only src in
  check_bool "nested reductions" true (stats.Spec_ssapre.Strength.reduced >= 2);
  check_str "output preserved" baseline.Spec_prof.Interp.output
    (interp p).Spec_prof.Interp.output

let test_sr_in_full_pipeline () =
  (* SR composes with speculative PRE in the full pipeline *)
  let src =
    "int g; int h; \
     int main(){ int s; s = 0; g = 3; int* w; w = &h; \
     if (rnd(1000) == 999) w = &g; \
     for (int i = 0; i < 64; i = i + 1) { s = s + g + i * 24; *w = i; } \
     print_int(s); print_int(h); return 0; }"
  in
  let baseline = interp (Lower.compile src) in
  let prof = Pipeline.profile_of_source src in
  let r =
    Pipeline.compile_and_optimize ~edge_profile:(Some prof) src
      Pipeline.Spec_heuristic
  in
  check_str "pipeline output preserved" baseline.Spec_prof.Interp.output
    (interp r.Pipeline.prog).Spec_prof.Interp.output;
  (* machine too *)
  let m = Spec_machine.Machine.run_sir r.Pipeline.prog in
  check_str "machine output preserved" baseline.Spec_prof.Interp.output
    m.Spec_machine.Machine.output

let test_sr_multiple_scales () =
  let src =
    "int a[32]; int b[64]; int main(){ int s; s = 0; \
     for (int i = 0; i < 32; i = i + 1) { s = s + a[i] + b[i * 2]; } \
     print_int(s); return 0; }"
  in
  let baseline = interp (Lower.compile src) in
  let p, stats = sr_only src in
  (* i*8 (for a) and i*2 then *8 (for b): at least two distinct scales *)
  check_bool "two scales reduced" true (stats.Spec_ssapre.Strength.reduced >= 2);
  check_str "output preserved" baseline.Spec_prof.Interp.output
    (interp p).Spec_prof.Interp.output

let prop_sr_random =
  QCheck.Test.make ~count:60 ~name:"strength reduction preserves semantics"
    (QCheck.make ~print:Fun.id
       QCheck.Gen.(
         let* n = int_range 2 20 in
         let* k = int_range 1 4 in
         let* step = int_range 1 3 in
         let* body_kind = int_range 0 2 in
         let body =
           match body_kind with
           | 0 -> Printf.sprintf "s = s + a[i %% 16] + i * %d;" k
           | 1 -> Printf.sprintf "a[(i * %d) %% 16] = s + i; s = s + a[i %% 16];" k
           | _ -> Printf.sprintf "s = s + i * %d + i * %d;" k (k + 8)
         in
         return
           (Printf.sprintf
              "int a[16]; int main(){ int s; s = 0; \
               for (int i = 0; i < %d; i = i + %d) { %s } \
               print_int(s); \
               int t; t = 0; \
               for (int j = 0; j < 16; j++) t = t + a[j]; \
               print_int(t); return 0; }"
              n step body)))
    (fun src ->
      let baseline = interp (Lower.compile src) in
      let p, _ = sr_only src in
      let after = interp p in
      baseline.Spec_prof.Interp.output = after.Spec_prof.Interp.output)

let suite =
  [ Alcotest.test_case "basic SR" `Quick test_basic_sr;
    Alcotest.test_case "LFTR removes IV" `Quick test_lftr_removes_iv;
    Alcotest.test_case "no LFTR when IV live" `Quick test_sr_iv_used_elsewhere_no_lftr;
    Alcotest.test_case "negative step" `Quick test_sr_negative_step;
    Alcotest.test_case "nested loops" `Quick test_sr_nested_loops;
    Alcotest.test_case "SR in full pipeline" `Quick test_sr_in_full_pipeline;
    Alcotest.test_case "multiple scales" `Quick test_sr_multiple_scales;
    QCheck_alcotest.to_alcotest prop_sr_random ]

(* Tests for speculative SSAPRE: the paper's worked examples as golden
   transformations, plus differential-execution correctness. *)

open Spec_ir
open Spec_driver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let count_marks (p : Sir.prog) mark =
  let n = ref 0 in
  Sir.iter_funcs
    (fun f ->
      Vec.iter
        (fun (b : Sir.bb) ->
          List.iter
            (fun (s : Sir.stmt) -> if s.Sir.mark = mark then incr n)
            b.Sir.stmts)
        f.Sir.fblocks)
    p;
  !n

let count_iloads (p : Sir.prog) =
  let n = ref 0 in
  Sir.iter_funcs
    (fun f ->
      Vec.iter
        (fun (b : Sir.bb) ->
          let scan e =
            Sir.iter_subexprs
              (function Sir.Ilod _ -> incr n | _ -> ())
              e
          in
          List.iter
            (fun (s : Sir.stmt) -> List.iter scan (Sir.stmt_exprs s.Sir.kind))
            b.Sir.stmts;
          List.iter scan (Sir.term_exprs b.Sir.term))
        f.Sir.fblocks)
    p;
  !n

let run_prog p = Spec_prof.Vm.run p

(* The paper's Figure 2: redundancy elimination using data speculation.
   r31 = p; ... = *p; *q = ...; ... = *p
   With profiling/heuristics saying p and q unlikely aliased, the second
   load of *p becomes a check (ld.c) and the first an advanced load. *)
let fig2_src =
  "int a[4]; int b[4]; \
   int main(){ int* p; int* q; int x; int y; \
   p = &a[0]; q = &b[0]; \
   if (rnd(100) == 777) q = &a[0]; \
   x = *p; \
   *q = 5; \
   y = *p; \
   print_int(x + y); return 0; }"

let test_fig2_nonspec_keeps_load () =
  let r = Pipeline.compile_and_optimize fig2_src Pipeline.Base in
  check_int "no checks under nonspeculative PRE" 0 (count_marks r.Pipeline.prog Sir.Mchk)

let test_fig2_heuristic_inserts_check () =
  let r = Pipeline.compile_and_optimize fig2_src Pipeline.Spec_heuristic in
  check_bool "check load generated" true (count_marks r.Pipeline.prog Sir.Mchk >= 1);
  check_bool "advanced load flagged" true (count_marks r.Pipeline.prog Sir.Madv >= 1)

let test_fig2_profile_inserts_check () =
  let prof = Pipeline.profile_of_source fig2_src in
  let r =
    Pipeline.compile_and_optimize fig2_src (Pipeline.Spec_profile prof)
  in
  check_bool "check load generated from profile" true
    (count_marks r.Pipeline.prog Sir.Mchk >= 1)

let test_fig2_profile_alias_blocks_speculation () =
  (* same shape, but p and q always alias at runtime: the profile must
     flag the chi as strong, keeping the second load *)
  let src =
    "int a[4]; \
     int main(){ int* p; int* q; int x; int y; \
     p = &a[0]; q = &a[0]; \
     x = *p; *q = 5; y = *p; \
     print_int(x + y); return 0; }"
  in
  let prof = Pipeline.profile_of_source src in
  let r = Pipeline.compile_and_optimize src (Pipeline.Spec_profile prof) in
  check_int "no check when profile shows real aliasing" 0
    (count_marks r.Pipeline.prog Sir.Mchk)

let test_fig2_all_variants_same_output () =
  let baseline = run_prog (Lower.compile fig2_src) in
  let prof = Pipeline.profile_of_source fig2_src in
  List.iter
    (fun variant ->
      let r = Pipeline.compile_and_optimize fig2_src variant in
      let out = run_prog r.Pipeline.prog in
      check_str
        (Printf.sprintf "output idential under %s"
           (Pipeline.variant_name variant))
        baseline.Spec_prof.Interp.output out.Spec_prof.Interp.output)
    [ Pipeline.Noopt; Pipeline.Base; Pipeline.Spec_heuristic;
      Pipeline.Spec_profile prof ]

(* Mis-speculation correctness: p and q DO alias at runtime but the
   heuristic speculates they don't.  The check reload must recover. *)
let test_misspeculation_recovers () =
  let src =
    (* the aliasing assignment hides behind an always-taken but
       data-dependent branch, so flow-sensitive refinement cannot
       disambiguate it statically *)
    "int a[4]; int b[4]; \
     int main(){ int* p; int* q; int x; int y; \
     p = &a[0]; q = &b[0]; \
     if (rnd(10) < 100) q = &a[0]; \
     a[0] = 1; \
     x = *p; *q = 42; y = *p; \
     print_int(y); return 0; }"
  in
  let baseline = run_prog (Lower.compile src) in
  check_str "baseline sees the store" "42\n" baseline.Spec_prof.Interp.output;
  let r = Pipeline.compile_and_optimize src Pipeline.Spec_heuristic in
  check_bool "speculation did fire" true (count_marks r.Pipeline.prog Sir.Mchk >= 1);
  let out = run_prog r.Pipeline.prog in
  check_str "check recovers the clobbered value" "42\n"
    out.Spec_prof.Interp.output

(* Loop-invariant load: PRE hoists the load of g out of the loop even in
   the nonspeculative pipeline (no aliasing store inside). *)
let test_loop_invariant_hoist () =
  let src =
    "int g; \
     int main(){ int s; s = 0; g = 7; \
     for (int i = 0; i < 100; i++) { s = s + g; } \
     print_int(s); return 0; }"
  in
  (* hoisting out of a while loop requires control speculation (the loop
     may run zero times), which the paper's O3 baseline drives with an
     edge profile *)
  let prof = Pipeline.profile_of_source src in
  let noopt = Pipeline.compile_and_optimize src Pipeline.Noopt in
  let base =
    Pipeline.compile_and_optimize ~edge_profile:(Some prof) src Pipeline.Base
  in
  let loads_noopt = (run_prog noopt.Pipeline.prog).Spec_prof.Interp.counters.Spec_prof.Interp.mem_loads in
  let loads_base = (run_prog base.Pipeline.prog).Spec_prof.Interp.counters.Spec_prof.Interp.mem_loads in
  check_int "unoptimized loads g each iteration" 100 loads_noopt;
  check_bool "PRE hoists the loop-invariant load" true (loads_base <= 2);
  check_str "same output" (run_prog (Lower.compile src)).Spec_prof.Interp.output
    (run_prog base.Pipeline.prog).Spec_prof.Interp.output

(* Speculative loop-invariant load: an aliasing store in the loop blocks
   nonspeculative hoisting; the speculative pipeline hoists with checks. *)
let spec_loop_src =
  (* w may point to g (the never-taken branch) so the baseline alias
     analysis must assume the store kills g; at runtime it never does *)
  "int g; int h; \
   int main(){ int s; s = 0; g = 7; int* w; w = &h; \
   if (rnd(1000) == 999) w = &g; \
   for (int i = 0; i < 100; i++) { s = s + g; *w = i; } \
   print_int(s); print_int(h); return 0; }"

let test_speculative_hoist () =
  let prof = Pipeline.profile_of_source spec_loop_src in
  let base =
    Pipeline.compile_and_optimize ~edge_profile:(Some prof) spec_loop_src
      Pipeline.Base
  in
  let spec =
    Pipeline.compile_and_optimize ~edge_profile:(Some prof) spec_loop_src
      Pipeline.Spec_heuristic
  in
  let loads_base =
    (run_prog base.Pipeline.prog).Spec_prof.Interp.counters.Spec_prof.Interp.mem_loads
  in
  let spec_ctrs = (run_prog spec.Pipeline.prog).Spec_prof.Interp.counters in
  (* the interpreter's semantic ALAT makes successful checks free: they
     do not appear in [mem_loads] at all *)
  check_bool "base cannot remove the loads" true (loads_base >= 100);
  check_bool "speculation emits checks" true
    (spec_ctrs.Spec_prof.Interp.check_stmts >= 90);
  check_bool "speculative PRE removes real loads" true
    (spec_ctrs.Spec_prof.Interp.mem_loads < loads_base / 5);
  check_str "outputs agree"
    (run_prog (Lower.compile spec_loop_src)).Spec_prof.Interp.output
    (run_prog spec.Pipeline.prog).Spec_prof.Interp.output

(* Figure 5/6 shape: enhanced phi insertion exposes speculative
   redundancy across a conditional may-alias store. *)
let fig6_src =
  "int a[4]; int b[4]; \
   int main(){ int* p; int x; int y; \
   if (rnd(10) == 99) p = &a[0]; else p = &b[0]; \
   x = a[0]; \
   if (rnd(2) == 0) { *p = 1; } \
   *p = 2; \
   y = a[0]; \
   print_int(x + y); return 0; }"

let test_fig6_speculative_phi_insertion () =
  let base = Pipeline.compile_and_optimize fig6_src Pipeline.Base in
  let prof = Pipeline.profile_of_source fig6_src in
  let spec = Pipeline.compile_and_optimize fig6_src (Pipeline.Spec_profile prof) in
  (* profile shows p = &b: the stores never touch a[0]; the reload of
     a[0] becomes a check while the base keeps the full load *)
  check_int "base keeps both loads" 0 (count_marks base.Pipeline.prog Sir.Mchk);
  check_bool "profile speculation checks the reload" true
    (count_marks spec.Pipeline.prog Sir.Mchk >= 1);
  check_str "outputs agree"
    (run_prog (Lower.compile fig6_src)).Spec_prof.Interp.output
    (run_prog spec.Pipeline.prog).Spec_prof.Interp.output

(* Arithmetic PRE: redundant pure expression is computed once. *)
let test_arith_pre () =
  let src =
    "int main(){ int x; int y; int a; int b; \
     x = rnd(10); y = rnd(10); \
     a = x * y + 3; \
     b = x * y + 3; \
     print_int(a + b); return 0; }"
  in
  let r = Pipeline.compile_and_optimize src Pipeline.Base in
  (* after PRE the multiply appears exactly once *)
  let muls = ref 0 in
  Sir.iter_funcs
    (fun f ->
      Vec.iter
        (fun (b : Sir.bb) ->
          List.iter
            (fun (s : Sir.stmt) ->
              List.iter
                (Sir.iter_subexprs (function
                  | Sir.Binop (Sir.Mul, _, _, _) -> incr muls
                  | _ -> ()))
                (Sir.stmt_exprs s.Sir.kind))
            b.Sir.stmts)
        f.Sir.fblocks)
    r.Pipeline.prog;
  check_int "one multiply after PRE" 1 !muls;
  check_str "output preserved"
    (run_prog (Lower.compile src)).Spec_prof.Interp.output
    (run_prog r.Pipeline.prog).Spec_prof.Interp.output

(* Calls kill speculation under heuristic rule 3. *)
let test_call_blocks_heuristic_speculation () =
  let src =
    "int g; \
     void touch(){ g = g + 1; } \
     int main(){ int x; int y; \
     g = 5; x = g; touch(); y = g; \
     print_int(x + y); return 0; }"
  in
  let r = Pipeline.compile_and_optimize src Pipeline.Spec_heuristic in
  check_int "no speculation across the call" 0 (count_marks r.Pipeline.prog Sir.Mchk);
  check_str "output preserved"
    (run_prog (Lower.compile src)).Spec_prof.Interp.output
    (run_prog r.Pipeline.prog).Spec_prof.Interp.output

(* Profile-driven speculation across calls: callee touches only h, so
   loads of g survive the call speculatively. *)
let test_profile_speculates_across_call () =
  let src =
    "int g; int h; int u[4]; \
     void touch(int* p){ *p = *p + 1; } \
     int main(){ int x; int y; \
     g = 5; x = g; touch(&h); y = g; \
     print_int(x + y); return 0; }"
  in
  let prof = Pipeline.profile_of_source src in
  let r = Pipeline.compile_and_optimize src (Pipeline.Spec_profile prof) in
  let out = run_prog r.Pipeline.prog in
  check_str "output preserved" "10\n" out.Spec_prof.Interp.output

(* Differential execution over random pointer-heavy programs. *)
let random_ptr_prog : string QCheck.Gen.t =
  QCheck.Gen.(
    let* n_iters = int_range 3 12 in
    let* alias_pct = int_range 0 100 in
    let* stores = int_range 1 3 in
    let body =
      Printf.sprintf
        "if (rnd(100) < %d) q = &a[i %% 4]; else q = &b[i %% 4]; %s s += a[0] + a[i %% 4];"
        alias_pct
        (String.concat " "
           (List.init stores (fun k -> Printf.sprintf "*q = i + %d;" k)))
    in
    return
      (Printf.sprintf
         "int a[4]; int b[4]; \
          int main(){ int* q; int s; s = 0; q = &b[0]; \
          for (int i = 0; i < %d; i++) { %s } \
          print_int(s); print_int(a[0]+a[1]+a[2]+a[3]); \
          print_int(b[0]+b[1]+b[2]+b[3]); return 0; }"
         n_iters body))

let prop_differential =
  QCheck.Test.make ~count:60
    ~name:"all pipelines preserve observable behaviour"
    (QCheck.make ~print:Fun.id random_ptr_prog)
    (fun src ->
      let baseline = run_prog (Lower.compile src) in
      let prof = Pipeline.profile_of_source src in
      List.for_all
        (fun variant ->
          let r = Pipeline.compile_and_optimize src variant in
          let out = run_prog r.Pipeline.prog in
          out.Spec_prof.Interp.output = baseline.Spec_prof.Interp.output)
        [ Pipeline.Base; Pipeline.Spec_heuristic; Pipeline.Spec_profile prof ])

(* ---- float constants are distinct candidates ---- *)

(* [x = a * 0.1; y = a * 0.10000000000001] are two expressions: a key
   that rendered float constants to twelve significant digits made them
   one, so [y] reused [x] and the program printed 0 instead of 39. *)
let test_float_constants_distinct () =
  let src = In_channel.with_open_text "float_keys.c" In_channel.input_all in
  let expected =
    (Spec_prof.Interp_ref.run (Lower.compile src)).Spec_prof.Interp_ref.output
  in
  check_str "the oracle sees the difference" "39\n" expected;
  let prof = Pipeline.profile_of_source src in
  List.iter
    (fun (name, v) ->
      let r = Pipeline.compile_and_optimize ~edge_profile:(Some prof) src v in
      let p = r.Pipeline.prog in
      check_str (name ^ " on the vm") expected
        (Spec_prof.Vm.run p).Spec_prof.Interp.output;
      List.iter
        (fun (core, kind) ->
          check_str (name ^ " on the " ^ core ^ " core") expected
            (Spec_machine.Machine.run_sir_on kind p).Spec_machine.Machine.output)
        [ ("in-order", Spec_machine.Machine.Inorder);
          ("out-of-order", Spec_machine.Machine.Ooo) ])
    [ ("noopt", Pipeline.Noopt); ("base", Pipeline.Base);
      ("heuristic", Pipeline.Spec_heuristic);
      ("profile", Pipeline.Spec_profile prof);
      ("aggressive", Pipeline.Aggressive) ]

(* ---- SSAPRE's work scales with the function ---- *)

(* The SSAPRE pass's work counters on the probe of [n] lines. *)
let probe_work variant n =
  let r =
    Pipeline.compile_and_optimize ~edge_profile:None (Ssapre_probe.source n)
      variant
  in
  match
    List.find_opt
      (fun ps -> ps.Passes.ps_pass = "ssapre")
      r.Pipeline.report.Passes.rp_passes
  with
  | None -> Alcotest.fail "no ssapre pass ran"
  | Some ps ->
    List.map
      (fun k ->
        match List.assoc_opt k ps.Passes.ps_counters with
        | Some v -> (k, v)
        | None -> Alcotest.failf "ssapre reports no %s counter" k)
      [ "items"; "kill-queries"; "pushes"; "pre-phis"; "trace-steps" ]

(* Doubling the probe may grow each counter at most 2.5x: all loads and
   stores share one alias class, so work that follows statements x
   candidates (or every Phi each occurrence's trace passes) grows 4x. *)
let test_probe_scaling () =
  let n = 100 in
  List.iter
    (fun (vname, v) ->
      let small = probe_work v n and large = probe_work v (2 * n) in
      List.iter
        (fun (k, a) ->
          let b = List.assoc k large in
          check_bool
            (Printf.sprintf "%s %s: %d at n=%d, %d at n=%d" vname k a n b (2 * n))
            true
            (float_of_int b <= 2.5 *. float_of_int (max a 1)))
        small)
    [ ("base", Pipeline.Base); ("heuristic", Pipeline.Spec_heuristic) ]

let suite =
  [ Alcotest.test_case "fig2 nonspec keeps load" `Quick test_fig2_nonspec_keeps_load;
    Alcotest.test_case "fig2 heuristic check" `Quick test_fig2_heuristic_inserts_check;
    Alcotest.test_case "fig2 profile check" `Quick test_fig2_profile_inserts_check;
    Alcotest.test_case "fig2 real alias blocks spec" `Quick test_fig2_profile_alias_blocks_speculation;
    Alcotest.test_case "fig2 variants agree" `Quick test_fig2_all_variants_same_output;
    Alcotest.test_case "misspeculation recovers" `Quick test_misspeculation_recovers;
    Alcotest.test_case "loop invariant hoist" `Quick test_loop_invariant_hoist;
    Alcotest.test_case "speculative hoist" `Quick test_speculative_hoist;
    Alcotest.test_case "fig6 phi insertion" `Quick test_fig6_speculative_phi_insertion;
    Alcotest.test_case "arith PRE" `Quick test_arith_pre;
    Alcotest.test_case "call blocks heuristic spec" `Quick test_call_blocks_heuristic_speculation;
    Alcotest.test_case "profile spec across call" `Quick test_profile_speculates_across_call;
    Alcotest.test_case "float constants are distinct candidates" `Quick
      test_float_constants_distinct;
    Alcotest.test_case "probe work grows linearly" `Quick test_probe_scaling;
    QCheck_alcotest.to_alcotest prop_differential ]

(* Tests for the pass manager (Spec_driver.Passes): analysis caching and
   invalidation, per-pass timing/stats collection, inter-pass IR
   verification, and end-to-end equivalence of every scheduled pipeline
   variant with the unoptimized program. *)

open Spec_ir
open Spec_driver
open Spec_workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let small_src =
  "int A[16];\n\
   int total;\n\
   int main() {\n\
  \  int i; i = 0;\n\
  \  while (i < 16) { A[i] = i * 3; i = i + 1; }\n\
  \  total = 0;\n\
  \  i = 0;\n\
  \  while (i < 16) { total = total + A[i]; i = i + 1; }\n\
  \  print_int(total);\n\
  \  return 0;\n\
   }\n"

let heuristic_config =
  Spec_ssapre.Ssapre.default_config Spec_spec.Flags.Heuristic_spec

(* ------------------------------------------------------------------ *)
(* Analysis caching and invalidation                                   *)
(* ------------------------------------------------------------------ *)

(* The cache must serve repeated annotate requests without recomputing,
   and a mutating pass that clobbers chi/mu must force a re-run. *)
let test_invalidation_reruns_annotation () =
  let prog = Lower.compile small_src in
  let mgr =
    Passes.create ~mode:Spec_spec.Flags.Heuristic_spec
      ~config:heuristic_config prog
  in
  let c = (Passes.report mgr).Passes.rp_counters in
  Passes.run_pass mgr "annotate";
  check_int "first annotate computes" 1 c.Passes.annot_runs;
  Passes.run_pass mgr "annotate";
  check_int "second annotate served from cache" 1 c.Passes.annot_runs;
  check_bool "cache hit recorded" true (c.Passes.annot_hits >= 1);
  (* out-of-ssa de-versions statements and wipes chi/mu lists: the pass
     reports the mutation, so the next annotate must recompute *)
  Passes.run_passes mgr [ "split-edges"; "build-ssa"; "out-of-ssa" ];
  Passes.run_pass mgr "annotate";
  check_int "annotation re-ran after mutating pass" 2 c.Passes.annot_runs;
  (* the points-to half (Steensgaard + mod/ref) stays cached throughout *)
  check_int "steensgaard still solved once" 1 c.Passes.steensgaard_runs

(* Acceptance criterion: per-round Steensgaard and dominator
   recomputation counts drop versus the seed pipeline, which re-solved
   points-to inside every annotation (prepass + one per round + store
   promotion) and rebuilt dominator trees in every client pass. *)
let test_analysis_reuse_across_rounds () =
  let rounds = 3 in
  let w = Workloads.find "equake" in
  let src = Workloads.train_source w in
  let nfuncs = ref 0 in
  Sir.iter_funcs (fun _ -> incr nfuncs) (Lower.compile src);
  let r =
    Pipeline.compile_and_optimize ~rounds src Pipeline.Spec_heuristic
  in
  let c = r.Pipeline.report.Passes.rp_counters in
  let seed_steensgaard = rounds + 2 in
  check_int "steensgaard solved exactly once" 1 c.Passes.steensgaard_runs;
  check_int "modref computed exactly once" 1 c.Passes.modref_runs;
  check_bool "fewer solves than the seed pipeline" true
    (c.Passes.steensgaard_runs < seed_steensgaard);
  check_bool "points-to served from cache across rounds" true
    (c.Passes.points_to_hits >= rounds);
  (* seed dominator computations: build-ssa and ssapre each round, the
     prepass build-ssa, store promotion and strength, per function *)
  let seed_dom = !nfuncs * ((2 * rounds) + 3) in
  check_bool
    (Printf.sprintf "dominator recomputation drops (%d < %d)"
       c.Passes.dom_runs seed_dom)
    true
    (c.Passes.dom_runs < seed_dom);
  check_bool "dominator trees served from cache" true (c.Passes.dom_hits > 0)

(* ------------------------------------------------------------------ *)
(* Per-pass stats: nothing is silently discarded any more              *)
(* ------------------------------------------------------------------ *)

let test_report_collects_all_pass_stats () =
  let r =
    Pipeline.compile_and_optimize small_src Pipeline.Spec_heuristic
  in
  let rp = r.Pipeline.report in
  let stat name =
    match
      List.find_opt (fun s -> s.Passes.ps_pass = name) rp.Passes.rp_passes
    with
    | Some s -> s
    | None -> Alcotest.failf "pass %s missing from report" name
  in
  let has_counter name key =
    List.mem_assoc key (stat name).Passes.ps_counters
  in
  check_int "ssapre ran once per round" 3 (stat "ssapre").Passes.ps_runs;
  check_bool "ssapre stats recorded" true (has_counter "ssapre" "reloads");
  check_bool "store-promo stats recorded" true
    (has_counter "store-promo" "promoted");
  check_bool "strength stats recorded" true (has_counter "strength" "reduced");
  check_bool "cleanup stats recorded" true (has_counter "cleanup" "removed");
  check_bool "every pass was timed" true
    (List.for_all (fun s -> s.Passes.ps_time >= 0.) rp.Passes.rp_passes);
  check_bool "report renders" true
    (String.length (Passes.report_to_string rp) > 0)

(* ------------------------------------------------------------------ *)
(* Inter-pass verification                                             *)
(* ------------------------------------------------------------------ *)

(* --verify-each names the offending pass when a transform breaks the
   IR: register a test-only pass that corrupts the CFG. *)
let test_verify_names_offending_pass () =
  let prog = Lower.compile small_src in
  Passes.register
    { Passes.pname = "test-corrupt-cfg";
      pdescr = "test-only: point a terminator at a missing block";
      prun =
        (fun ctx ->
          Sir.iter_funcs
            (fun f -> (Sir.block f 0).Sir.term <- Sir.Tgoto 9999)
            ctx.Passes.prog;
          { Passes.touched = true; invalidates = [ Passes.Dominators ];
            counters = [] }) };
  let mgr =
    Passes.create ~verify_each:true ~mode:Spec_spec.Flags.Heuristic_spec
      ~config:heuristic_config prog
  in
  match Passes.run_pass mgr "test-corrupt-cfg" with
  | exception Passes.Verify_error (pass, _msg) ->
    check_str "offending pass named" "test-corrupt-cfg" pass
  | () -> Alcotest.fail "inter-pass verification did not fire"

let test_unknown_pass_rejected () =
  let prog = Lower.compile small_src in
  let mgr =
    Passes.create ~mode:Spec_spec.Flags.Heuristic_spec
      ~config:heuristic_config prog
  in
  match Passes.run_pass mgr "no-such-pass" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unknown pass accepted"

(* ------------------------------------------------------------------ *)
(* End-to-end: every variant, every workload, verify-each on           *)
(* ------------------------------------------------------------------ *)

let test_variants_match_noopt_verified () =
  List.iter
    (fun w ->
      let src = Workloads.train_source w in
      let prof = Pipeline.profile_of_source src in
      let expect =
        (Spec_prof.Vm.run (Lower.compile src)).Spec_prof.Interp.output
      in
      List.iter
        (fun (name, variant) ->
          let r =
            Pipeline.compile_and_optimize ~verify_each:true
              ~edge_profile:(Some prof) src variant
          in
          let out =
            (Spec_prof.Vm.run r.Pipeline.prog).Spec_prof.Interp.output
          in
          check_str
            (w.Workloads.name ^ "/" ^ name ^ " matches noopt output")
            expect out)
        [ "noopt", Pipeline.Noopt; "base", Pipeline.Base;
          "profile", Pipeline.Spec_profile prof;
          "heuristic", Pipeline.Spec_heuristic ];
      (* the aggressive upper bound drops its runtime checks, so kernels
         with real aliasing legitimately diverge (as in Experiments);
         still drive it under verify-each so IR invariants are checked *)
      ignore
        (Pipeline.compile_and_optimize ~verify_each:true
           ~edge_profile:(Some prof) src Pipeline.Aggressive
         : Pipeline.result))
    Workloads.all

let suite =
  [ Alcotest.test_case "invalidation re-runs annotation" `Quick
      test_invalidation_reruns_annotation;
    Alcotest.test_case "points-to/dominators reused across rounds" `Quick
      test_analysis_reuse_across_rounds;
    Alcotest.test_case "per-pass stats all collected" `Quick
      test_report_collects_all_pass_stats;
    Alcotest.test_case "verify-each names the offending pass" `Quick
      test_verify_names_offending_pass;
    Alcotest.test_case "unknown pass rejected" `Quick
      test_unknown_pass_rejected;
    Alcotest.test_case "all variants x workloads match noopt (verified)"
      `Slow test_variants_match_noopt_verified ]

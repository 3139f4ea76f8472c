(* Tests for the SPEC2000-like workload kernels and the experiment
   harness: every kernel must compile, run deterministically, and keep
   identical observable behaviour under every pipeline variant (the
   harness asserts this internally). *)

open Spec_ir
open Spec_driver
open Spec_workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let test_all_compile_and_run () =
  List.iter
    (fun w ->
      let p = Lower.compile (Workloads.train_source w) in
      let r = Spec_prof.Vm.run p in
      check_bool
        (w.Workloads.name ^ " produces output")
        true
        (String.length r.Spec_prof.Interp.output > 0))
    Workloads.all

let test_deterministic () =
  List.iter
    (fun w ->
      let out () =
        (Spec_prof.Vm.run (Lower.compile (Workloads.train_source w)))
          .Spec_prof.Interp.output
      in
      check_str (w.Workloads.name ^ " deterministic") (out ()) (out ()))
    Workloads.all

let test_train_ref_differ () =
  List.iter
    (fun w ->
      let t =
        (Spec_prof.Vm.run (Lower.compile (Workloads.train_source w)))
          .Spec_prof.Interp.output
      in
      let r =
        (Spec_prof.Vm.run (Lower.compile (Workloads.ref_source w)))
          .Spec_prof.Interp.output
      in
      check_bool (w.Workloads.name ^ " ref input differs from train") true
        (t <> r))
    Workloads.all

(* sites must line up between the train and ref compiles, or profiles
   collected on train would be meaningless for ref *)
let test_site_stability () =
  List.iter
    (fun w ->
      let pt = Lower.compile (Workloads.train_source w) in
      let pr = Lower.compile (Workloads.ref_source w) in
      check_int
        (w.Workloads.name ^ " same number of sites")
        pt.Sir.next_site pr.Sir.next_site;
      Hashtbl.iter
        (fun sid (si : Sir.site_info) ->
          match Sir.site_info pr sid with
          | Some si' ->
            check_bool "site kinds match" true
              (si.Sir.si_kind = si'.Sir.si_kind
               && si.Sir.si_func = si'.Sir.si_func)
          | None -> Alcotest.fail "missing site in ref compile")
        pt.Sir.sites)
    Workloads.all

(* the harness runs every variant and asserts identical output; run it in
   quick mode for three representative kernels *)
let test_experiment_harness_quick () =
  List.iter
    (fun name ->
      let b = Experiments.run_workload ~quick:true (Workloads.find name) in
      check_bool (name ^ " produced spec stats") true
        (b.Experiments.prof_spec.Experiments.r_stats.Spec_ssapre.Ssapre.items
         > 0))
    [ "equake"; "mcf"; "gzip" ]

let test_equake_shape () =
  (* §5.1: a large fraction of smvp's loads become checks, speedup is
     positive but below the no-check upper bound *)
  let b = Experiments.run_workload ~quick:true (Workloads.find "equake") in
  let s = Experiments.smvp_case_study b in
  check_bool "checks between 20% and 60%" true
    (s.Experiments.checks_pct > 20. && s.Experiments.checks_pct < 60.);
  check_bool "speculative speedup positive" true
    (s.Experiments.spec_speedup > 0.);
  check_bool "upper bound above speculative" true
    (s.Experiments.tuned_speedup > s.Experiments.spec_speedup)

let test_gzip_misspeculates_on_ref () =
  (* the ref input exhibits aliasing the train profile never saw: checks
     must miss at runtime and the program must still be correct (the
     harness asserts output equality internally) *)
  let b = Experiments.run_workload (Workloads.find "gzip") in
  let p = b.Experiments.prof_spec.Experiments.r_machine.Spec_machine.Machine.perf in
  check_bool "gzip has (few) checks" true (p.Spec_machine.Machine.checks > 0);
  check_bool "gzip mis-speculates on ref" true
    (p.Spec_machine.Machine.check_misses > 0);
  let ratio =
    float_of_int p.Spec_machine.Machine.check_misses
    /. float_of_int p.Spec_machine.Machine.checks
  in
  check_bool "mis-speculation ratio in the paper's ballpark (1..15%)" true
    (ratio > 0.01 && ratio < 0.15)

let test_no_misspec_on_train () =
  (* measuring on the same input as profiled: speculation is never wrong *)
  let b = Experiments.run_workload ~quick:true (Workloads.find "gzip") in
  let p = b.Experiments.prof_spec.Experiments.r_machine.Spec_machine.Machine.perf in
  check_int "no misses when input matches profile" 0
    p.Spec_machine.Machine.check_misses

let test_alat_ablation_monotone () =
  let rows =
    Experiments.ablate_alat
      (Experiments.prepare ~quick:true (Workloads.find "equake"))
      [ 4; 32 ]
  in
  match rows with
  | [ (_, _, misses_small); (_, _, misses_big) ] ->
    check_bool "smaller ALAT misses at least as much" true
      (misses_small >= misses_big)
  | _ -> Alcotest.fail "expected two rows"

(* the control-speculation ablation's "on" column reads Fig. 10's
   profile variant, so a compile of the build with control speculation
   explicitly on, lowered and scheduled the same way, must reproduce
   its loads and cycles *)
let test_cspec_ablation_is_profile_variant () =
  let module M = Spec_machine.Machine in
  List.iter
    (fun name ->
      let b = Experiments.run_workload ~quick:true (Workloads.find name) in
      let { Experiments.profile; src; _ } = b.Experiments.build in
      let config =
        { (Spec_ssapre.Ssapre.default_config Spec_spec.Flags.Nonspec) with
          Spec_ssapre.Ssapre.control_spec = true }
      in
      let r =
        Pipeline.optimize ~config:(Some config) ~edge_profile:(Some profile)
          (Lower.compile src) (Pipeline.Spec_profile profile)
      in
      let p =
        (M.run (Experiments.lower_scheduled r.Pipeline.prog)).M.perf
      in
      let _, loads_on, _, cycles_on, _ = Experiments.ablate_control_spec b in
      check_int (name ^ ": loads (cspec on)") (M.loads_retired p) loads_on;
      check_int (name ^ ": cycles (cspec on)") p.M.cycles cycles_on)
    [ "art"; "equake" ]

let test_fig12_potential_bounds_achieved () =
  List.iter
    (fun name ->
      let b = Experiments.run_workload ~quick:true (Workloads.find name) in
      let achieved =
        Experiments.load_reduction ~base:b.Experiments.base
          ~spec:b.Experiments.prof_spec
      in
      let aggressive =
        Experiments.load_reduction ~base:b.Experiments.base
          ~spec:b.Experiments.aggressive
      in
      check_bool (name ^ ": aggressive >= achieved") true
        (aggressive >= achieved -. 0.2))
    [ "equake"; "art"; "twolf" ]

let suite =
  [ Alcotest.test_case "all compile and run" `Quick test_all_compile_and_run;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "train/ref differ" `Quick test_train_ref_differ;
    Alcotest.test_case "site stability" `Quick test_site_stability;
    Alcotest.test_case "experiment harness" `Slow test_experiment_harness_quick;
    Alcotest.test_case "equake shape" `Slow test_equake_shape;
    Alcotest.test_case "gzip misspec on ref" `Slow test_gzip_misspeculates_on_ref;
    Alcotest.test_case "no misspec on train" `Slow test_no_misspec_on_train;
    Alcotest.test_case "ALAT ablation monotone" `Slow test_alat_ablation_monotone;
    Alcotest.test_case "fig12 bounds" `Slow test_fig12_potential_bounds_achieved;
    Alcotest.test_case "cspec ablation is the profile variant" `Slow
      test_cspec_ablation_is_profile_variant ]

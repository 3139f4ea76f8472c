(* Tests for the misspeculation stress layer: the splittable RNG, fault
   plans and injectors, ALAT interference, the stress sweep's
   correctness/determinism/degradation guarantees, and the pinned
   [specpre-bench/8] JSON schema (golden check on the committed
   baselines and on a freshly emitted dump). *)

open Spec_driver
open Spec_stress

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---- splittable RNG ---- *)

let draws rng n = List.init n (fun _ -> Srng.bits rng)

let test_srng_determinism () =
  let a = Srng.of_path 1 [ "w"; "variant"; "machine" ] in
  let b = Srng.of_path 1 [ "w"; "variant"; "machine" ] in
  check_bool "same path, same stream" true (draws a 32 = draws b 32);
  let c = Srng.of_path 1 [ "w"; "variant"; "interp" ] in
  check_bool "sibling label, different stream" false (draws a 32 = draws c 32);
  let d = Srng.of_path 2 [ "w"; "variant"; "machine" ] in
  check_bool "different seed, different stream" false (draws b 32 = draws d 32)

let test_srng_split_independence () =
  (* a split stream must not depend on how many draws the parent makes
     afterwards (pool workers interleave arbitrarily) *)
  let p1 = Srng.of_path 7 [ "root" ] in
  let s1 = Srng.split p1 "child" in
  ignore (draws p1 100);
  let p2 = Srng.of_path 7 [ "root" ] in
  let s2 = Srng.split p2 "child" in
  check_bool "split stream is draw-count independent" true
    (draws s1 16 = draws s2 16);
  check_bool "split differs from parent" false (draws s1 16 = draws p2 16)

let test_srng_below_range () =
  let rng = Srng.of_path 3 [ "range" ] in
  let seen = Array.make 7 false in
  for _ = 1 to 1000 do
    let v = Srng.below rng 7 in
    check_bool "below in range" true (v >= 0 && v < 7);
    seen.(v) <- true
  done;
  check_bool "below covers the range" true (Array.for_all Fun.id seen)

(* ---- fault plans ---- *)

let test_faults_parse_roundtrip () =
  List.iter
    (fun spec ->
      match Faults.parse ~seed:1 spec with
      | Ok p -> check_str "round trip" spec (Faults.to_string p)
      | Error m -> Alcotest.fail m)
    [ "flush=64"; "inv=10000"; "flush=8,inv=500000,alat=4,adv=invert";
      "adv=drop:25000" ];
  (match Faults.parse ~seed:1 "" with
   | Ok p -> check_bool "empty spec is the null plan" true (Faults.is_null p)
   | Error m -> Alcotest.fail m);
  List.iter
    (fun bad ->
      match Faults.parse ~seed:1 bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error _ -> ())
    [ "flush"; "flush=x"; "adv=maybe"; "bogus=1"; "alat=1"; "alat=3";
      "alat=6" ]

let test_injector_gating () =
  (* adversarial-only plans have no runtime fault source: the zero point
     and the adversarial point must take the exact unfaulted code path *)
  let none p = Faults.injector_opt p ~scope:[ "t" ] = None in
  check_bool "null plan: no injector" true (none (Faults.null 1));
  check_bool "adversarial-only plan: no injector" true
    (none { (Faults.null 1) with Faults.adversary = Faults.Adv_invert });
  check_bool "alat-only plan: no injector" true
    (none { (Faults.null 1) with Faults.alat_entries = Some 4 });
  check_bool "flush plan: injector" false
    (none { (Faults.null 1) with Faults.flush_period = 8 });
  check_bool "chaos plan: injector" false
    (none { (Faults.null 1) with Faults.inv_ppm = 10_000 })

let test_advance_semantics () =
  let nop_flush () = () and nop_inv _ = () in
  let plan = { (Faults.null 1) with Faults.flush_period = 4 } in
  let inj = Faults.injector plan ~scope:[ "adv" ] in
  Faults.advance inj ~upto:8 ~flush:nop_flush ~invalidate:nop_inv;
  check_int "flush every 4 time units" 2 (Faults.flushes inj);
  (* re-advancing to the same mark must not double-fire *)
  Faults.advance inj ~upto:8 ~flush:nop_flush ~invalidate:nop_inv;
  check_int "monotone mark" 2 (Faults.flushes inj);
  Faults.advance inj ~upto:12 ~flush:nop_flush ~invalidate:nop_inv;
  check_int "next period fires" 3 (Faults.flushes inj);
  (* certain chaos: one invalidation event per time unit *)
  let chaos = { (Faults.null 1) with Faults.inv_ppm = 1_000_000 } in
  let inj2 = Faults.injector chaos ~scope:[ "chaos" ] in
  Faults.advance inj2 ~upto:10 ~flush:nop_flush ~invalidate:nop_inv;
  check_int "ppm=100% fires every time unit" 10 (Faults.invalidations inj2)

let test_alat_interference () =
  let open Spec_machine in
  let t = Alat.create ~entries:8 ~assoc:2 () in
  Alat.insert t ~frame:0 ~reg:1 ~addr:0;
  Alat.insert t ~frame:0 ~reg:2 ~addr:8;
  Alat.insert t ~frame:0 ~reg:3 ~addr:24;
  check_int "three live entries" 3 (Alat.live t);
  (* certain chaos drops exactly one live entry per elapsed cycle *)
  let chaos = { (Faults.null 5) with Faults.inv_ppm = 1_000_000 } in
  Alat.set_faults t (Faults.injector_opt chaos ~scope:[ "alat-test" ]);
  Alat.interfere t ~now:2;
  check_int "chaos dropped one entry per cycle" 1 (Alat.live t);
  (* a flush empties the table outright *)
  let fl = { (Faults.null 5) with Faults.flush_period = 1 } in
  Alat.set_faults t (Faults.injector_opt fl ~scope:[ "alat-flush" ]);
  Alat.insert t ~frame:0 ~reg:4 ~addr:32;
  Alat.interfere t ~now:1;
  check_int "flush empties the table" 0 (Alat.live t);
  check_bool "flushed entries fail their check" false
    (Alat.check t ~frame:0 ~reg:4)

(* ---- the sweep: correctness, determinism, graceful degradation ---- *)

let mini_points seed =
  let p = Faults.null seed in
  [ { Experiments.sp_label = "0%"; Experiments.sp_plan = p };
    { Experiments.sp_label = "inv-10%";
      Experiments.sp_plan = { p with Faults.inv_ppm = 100_000 } };
    { Experiments.sp_label = "adv-invert";
      Experiments.sp_plan = { p with Faults.adversary = Faults.Adv_invert } } ]

(* one small sweep, shared by the tests below; art is the cheapest
   workload whose profile variant both speculates and can be forced to
   misspeculate by the adversary *)
let mini_sweep =
  lazy
    (Experiments.stress_workload ~quick:true ~seed:1
       ~points:(mini_points 1)
       (Spec_workloads.Workloads.find "art"))

let cell cells point variant =
  match
    List.find_opt
      (fun c ->
        c.Experiments.sc_point = point && c.Experiments.sc_variant = variant)
      cells
  with
  | Some c -> c
  | None -> Alcotest.failf "missing stress cell %s/%s" point variant

let test_stress_zero_fault_reproduces_baseline () =
  let cells = Lazy.force mini_sweep in
  let c = cell cells "0%" "profile" in
  (* an independent honest compile and unfaulted run must produce the
     same machine counters as the sweep's zero-fault row *)
  let open Spec_workloads in
  let w = Workloads.find "art" in
  let profile, _ =
    Spec_prof.Profiler.profile
      (Spec_ir.Lower.compile (Workloads.train_source w))
  in
  let prog = Spec_ir.Lower.compile (w.Workloads.source w.Workloads.train) in
  let r =
    Pipeline.optimize ~edge_profile:(Some profile) prog
      (Pipeline.Spec_profile profile)
  in
  let mp = Spec_codegen.Codegen.lower r.Pipeline.prog in
  ignore (Spec_codegen.Schedule.run mp : Spec_codegen.Schedule.stats);
  let m =
    Spec_machine.Machine.run_resolved ~config:!Experiments.machine_config
      (Spec_machine.Machine.resolve mp)
  in
  let p = m.Spec_machine.Machine.perf in
  check_int "cycles reproduce" p.Spec_machine.Machine.cycles
    c.Experiments.sc_cycles;
  check_int "insns reproduce" p.Spec_machine.Machine.insns
    c.Experiments.sc_insns;
  check_int "checks reproduce" p.Spec_machine.Machine.checks
    c.Experiments.sc_checks;
  check_int "misses reproduce" p.Spec_machine.Machine.check_misses
    c.Experiments.sc_misses;
  check_int "no adversary flips at the zero point" 0
    c.Experiments.sc_adv_flips;
  check_int "no injected machine faults at the zero point" 0
    (c.Experiments.sc_m_flushes + c.Experiments.sc_m_invs);
  check_int "no injected interp faults at the zero point" 0
    (c.Experiments.sc_i_flushes + c.Experiments.sc_i_invs)

let test_stress_graceful_degradation () =
  let cells = Lazy.force mini_sweep in
  let zero = cell cells "0%" "profile" in
  let chaos = cell cells "inv-10%" "profile" in
  let adv = cell cells "adv-invert" "profile" in
  check_bool "baseline speculates" true (zero.Experiments.sc_checks > 0);
  check_int "baseline has no misses" 0 zero.Experiments.sc_misses;
  (* chaos invalidation turns hits into misses and costs recovery
     cycles, but never correctness (the sweep itself asserts
     bit-identical output at every point) *)
  check_bool "chaos induces check misses" true
    (chaos.Experiments.sc_misses > 0);
  check_bool "hit rate degrades under chaos" true
    (Experiments.stress_hit_rate chaos < Experiments.stress_hit_rate zero);
  check_bool "recovery costs cycles" true
    (chaos.Experiments.sc_cycles >= zero.Experiments.sc_cycles);
  check_bool "interp recovery reloads fire" true
    (chaos.Experiments.sc_i_reloads > 0);
  (* the adversarial profile forces speculation across real aliases:
     more checks than the honest compile, and recovery at the wrong
     ones *)
  check_bool "adversary flipped speculation decisions" true
    (adv.Experiments.sc_adv_flips > 0);
  check_bool "adversary widens speculation" true
    (adv.Experiments.sc_checks > zero.Experiments.sc_checks);
  check_bool "adversary forces recovery" true (adv.Experiments.sc_misses > 0);
  check_bool "interp recovers from the wrong profile too" true
    (adv.Experiments.sc_i_reloads > 0)

let test_stress_jobs_determinism () =
  (* the sweep must be byte-identical for any pool width: fault streams
     are derived from scope labels, never from scheduling order *)
  let sweep () =
    Experiments.stress_workload ~quick:true ~seed:1 ~points:(mini_points 1)
      (Spec_workloads.Workloads.find "art")
  in
  let saved = Parpool.get_jobs () in
  let with_jobs n f =
    Fun.protect
      ~finally:(fun () -> Parpool.set_jobs saved)
      (fun () ->
        Parpool.set_jobs n;
        f ())
  in
  let seq = with_jobs 1 sweep in
  let par = with_jobs 2 sweep in
  check_bool "identical cells under --jobs 1 and --jobs 2" true (seq = par);
  check_bool "sweep matches the memoized run" true
    (seq = Lazy.force mini_sweep)

(* ---- the pinned bench JSON schema ---- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* substring replacement, for mangling a valid dump into invalid ones *)
let replace ~sub ~by s =
  let ls = String.length s and lsub = String.length sub in
  let buf = Buffer.create ls in
  let i = ref 0 in
  while !i <= ls - lsub do
    if String.sub s !i lsub = sub then begin
      Buffer.add_string buf by;
      i := !i + lsub
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.add_string buf (String.sub s !i (ls - !i));
  Buffer.contents buf

let test_bench_json_schema_committed () =
  (* golden check: every committed BENCH_<date>.json baseline must parse
     and validate against the pinned specpre-bench/8 schema *)
  let dir = ".." in
  let baselines =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
  in
  check_bool "at least one committed baseline" true (baselines <> []);
  List.iter
    (fun f ->
      match Bench_json.check (read_file (Filename.concat dir f)) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" f msg)
    baselines

(* hand-built section cells so the dump exercises the engines and mdp
   validators without paying for a real throughput sweep *)
let mini_engine_cells =
  [ { Experiments.e_wname = "art"; e_steps = 1000; e_insns = 2000;
      e_ref_s = 0.01; e_vm_s = 0.001 } ]

let mini_mdp_cells =
  [ { Experiments.md_wname = "art";
      md_policy = Spec_machine.Machine.Mdp_none; md_cycles = 100;
      md_insns = 200; md_replays = 3 };
    { Experiments.md_wname = "art";
      md_policy = Spec_machine.Machine.Mdp_store_set; md_cycles = 90;
      md_insns = 200; md_replays = 1 } ]

let mini_safety_cells =
  [ { Experiments.sf_wname = "cipher"; sf_variant = "heuristic";
      sf_verdict = "leaks"; sf_confirmed = 1; sf_plausible = 0;
      sf_sites = [ "CONFIRMED spec-addr round:spec-addr:(sbox + (idx * 8))#0" ];
      sf_checks = 480; sf_reloads = 12; sf_reload_steps = 9000;
      sf_deopts = 3; sf_deopt_steps = 7000 };
    { Experiments.sf_wname = "ctsel"; sf_variant = "profile";
      sf_verdict = "safe"; sf_confirmed = 0; sf_plausible = 0;
      sf_sites = []; sf_checks = 288; sf_reloads = 0; sf_reload_steps = 5000;
      sf_deopts = 0; sf_deopt_steps = 5000 } ]

let fresh_dump () =
  Bench_json.dump ~date:"2026-08-07" ~inputs:"train" ~jobs:1
    ~harness_wall_s:0.123
    ~engines:(Bench_json.engines_json mini_engine_cells)
    ~mdp:(Bench_json.mdp_json mini_mdp_cells)
    ~stress:(Bench_json.stress_json ~seed:1 (Lazy.force mini_sweep))
    ~safety:(Bench_json.safety_json ~seed:1 mini_safety_cells)
    []

let test_bench_json_schema_stress_section () =
  match Bench_json.check (fresh_dump ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fresh dump does not validate: %s" msg

let test_bench_json_rejects_drift () =
  let dump = fresh_dump () in
  List.iter
    (fun (what, bad) ->
      match Bench_json.check bad with
      | Ok () -> Alcotest.failf "schema drift accepted: %s" what
      | Error _ -> ())
    [ "renamed stress counter",
      replace ~sub:"\"check_misses\"" ~by:"\"cheks\"" dump;
      "unknown schema tag",
      replace ~sub:"specpre-bench/8" ~by:"specpre-bench/10" dump;
      "two-engine schema tag",
      replace ~sub:"specpre-bench/8" ~by:"specpre-bench/7" dump;
      "pre-shards schema tag",
      replace ~sub:"specpre-bench/8" ~by:"specpre-bench/6" dump;
      "pre-safety schema tag",
      replace ~sub:"specpre-bench/8" ~by:"specpre-bench/5" dump;
      "pre-engine schema tag",
      replace ~sub:"specpre-bench/8" ~by:"specpre-bench/3" dump;
      "pre-backend schema tag",
      replace ~sub:"specpre-bench/8" ~by:"specpre-bench/2" dump;
      "unknown safety verdict",
      replace ~sub:"\"verdict\":\"leaks\"" ~by:"\"verdict\":\"spooky\"" dump;
      "renamed safety counter",
      replace ~sub:"\"deopt_steps\"" ~by:"\"deopt_step\"" dump;
      "int where site string expected",
      replace ~sub:"\"sites\":[]" ~by:"\"sites\":[7]" dump;
      "missing backend dimension",
      replace ~sub:"\"backend\":\"inorder\"," ~by:"" dump;
      "unknown backend name",
      replace ~sub:"\"backend\":\"inorder\"" ~by:"\"backend\":\"vliw\"" dump;
      "unknown mdp policy name",
      replace ~sub:"\"mdp\":\"store-set\"" ~by:"\"mdp\":\"psychic\"" dump;
      "renamed engine counter",
      replace ~sub:"\"vm_wall_s\"" ~by:"\"vm_walls\"" dump;
      "string where int expected",
      replace ~sub:"\"seed\":1" ~by:"\"seed\":\"one\"" dump;
      "truncated document", String.sub dump 0 (String.length dump - 4) ]

let suite =
  [ Alcotest.test_case "srng determinism" `Quick test_srng_determinism;
    Alcotest.test_case "srng split independence" `Quick
      test_srng_split_independence;
    Alcotest.test_case "srng below range" `Quick test_srng_below_range;
    Alcotest.test_case "faults parse round trip" `Quick
      test_faults_parse_roundtrip;
    Alcotest.test_case "injector gating" `Quick test_injector_gating;
    Alcotest.test_case "advance semantics" `Quick test_advance_semantics;
    Alcotest.test_case "ALAT interference" `Quick test_alat_interference;
    Alcotest.test_case "zero-fault point reproduces baseline" `Quick
      test_stress_zero_fault_reproduces_baseline;
    Alcotest.test_case "graceful degradation" `Quick
      test_stress_graceful_degradation;
    Alcotest.test_case "--jobs determinism" `Quick
      test_stress_jobs_determinism;
    Alcotest.test_case "bench JSON schema (committed baselines)" `Quick
      test_bench_json_schema_committed;
    Alcotest.test_case "bench JSON schema (stress section)" `Quick
      test_bench_json_schema_stress_section;
    Alcotest.test_case "bench JSON schema rejects drift" `Quick
      test_bench_json_rejects_drift ]

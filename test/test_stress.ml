(* Tests for the misspeculation stress layer: the splittable RNG, fault
   plans and injectors, ALAT interference, the stress sweep's
   correctness/determinism/degradation guarantees, and the bench
   record's JSON printer and reader. *)

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
    (Experiments.stress_workload ~seed:1 ~points:(mini_points 1)
       (Experiments.prepare ~quick:true (Spec_workloads.Workloads.find "art")))

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
    Spec_machine.Machine.run_resolved (Spec_machine.Machine.resolve mp)
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
    Experiments.stress_workload ~seed:1 ~points:(mini_points 1)
      (Experiments.prepare ~quick:true (Spec_workloads.Workloads.find "art"))
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

(* ---- the bench record ---- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* test/bench_record.json is the harness's own output, diffed byte for
   byte by a dune rule; reading it and printing the value again must
   give the same bytes, so the golden and the printer hold one format *)
let test_bench_record_round_trip () =
  let text = read_file "bench_record.json" in
  match Bench_json.parse text with
  | Error msg -> Alcotest.failf "bench_record.json: %s" msg
  | Ok v ->
    (match v with
     | Bench_json.Obj (("schema", Bench_json.Str tag) :: _) ->
       check_str "schema tag" Bench_json.schema_tag tag
     | _ -> Alcotest.fail "bench_record.json: no leading schema field");
    check_str "printing the parsed record reproduces the file" text
      (Bench_json.to_string v ^ "\n")

(* ---- adversarial kill verdicts ---- *)

(* Under [adv=drop] the coin for one (statement, load site) pair is a
   pure function of the plan: the same pair gets the same verdict however
   often, and in whatever order, the optimizer asks about it. *)
let test_drop_coin_per_pair () =
  let open Spec_ir in
  let prog =
    Lower.compile
      "int A[16]; int main(){ int* q; q = A; int x; x = 0; \
       for (int k = 0; k < 8; k++) { q[k] = k; x = x + q[k] + q[k + 1]; \
       q[k + 1] = x; } print_int(x); return 0; }"
  in
  let info = Spec_alias.Annotate.run prog in
  let f = Sir.find_func prog "main" in
  let stmts = ref [] and sites = ref [] in
  Vec.iter
    (fun (b : Sir.bb) ->
      List.iter
        (fun (s : Sir.stmt) ->
          stmts := s :: !stmts;
          List.iter
            (Sir.iter_subexprs (function
              | Sir.Ilod (_, _, site) -> sites := site :: !sites
              | _ -> ()))
            (Sir.stmt_exprs s.Sir.kind))
        b.Sir.stmts)
    f.Sir.fblocks;
  let kctx () =
    let k =
      Spec_spec.Kills.create
        ?adversary:
          (Spec_spec.Flags.perturbation ~seed:3 ~scope:[ "coin" ]
             (Faults.Adv_drop 500_000))
        prog info Spec_spec.Flags.Heuristic_spec
    in
    Vec.iter
      (fun (b : Sir.bb) ->
        List.iter
          (fun (s : Sir.stmt) ->
            match s.Sir.kind with
            | Sir.Istr (_, a, _, site) ->
              Spec_spec.Kills.register_site_addr k site a
            | _ ->
              List.iter
                (Sir.iter_subexprs (function
                  | Sir.Ilod (_, a, site) ->
                    Spec_spec.Kills.register_site_addr k site a
                  | _ -> ()))
                (Sir.stmt_exprs s.Sir.kind))
          b.Sir.stmts)
      f.Sir.fblocks;
    k
  in
  let pairs =
    List.concat_map (fun s -> List.map (fun l -> (s, l)) !sites) !stmts
  in
  let ask k (s, l) = Spec_spec.Kills.classify k (Spec_spec.Kills.Tsite l) s in
  let k1 = kctx () in
  let first = List.map (ask k1) pairs in
  let again = List.map (ask k1) pairs in
  let k2 = kctx () in
  let reversed = List.rev (List.map (ask k2) (List.rev pairs)) in
  check_bool "repeated queries agree" true (first = again);
  check_bool "query order does not matter" true (first = reversed);
  check_bool "some strong verdict was dropped" true
    (List.mem Spec_spec.Kills.Kweak first)

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
    Alcotest.test_case "bench record: printer and reader agree" `Quick
      test_bench_record_round_trip;
    Alcotest.test_case "drop coin is per statement and site" `Quick
      test_drop_coin_per_pair ]

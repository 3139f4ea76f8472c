(* Two-core suite.

   The machine runs one functional walk under two timing models: the
   paper's in-order EPIC machine (the default) and an out-of-order
   control (ROB + LSQ with a memory-dependence predictor +
   checkpoint-restore analogues).  The contract this suite enforces:

   - dispatch parity: [Machine.run*] and [Machine.run*_on Inorder] are
     the same engine, and the in-order goldens of [test_engines.ml]
     hold bit-for-bit through the dispatch path (drift rejection);
   - architectural agreement: for every workload under every pipeline
     variant, the two backends retire the same instruction stream and
     produce byte-identical program output — only timing may differ;
   - the OoO memory system: loads issued past unresolved aliasing
     stores replay ([lsq_replays]), and the memory-dependence
     predictors (store-set, last-violator) learn to suppress replays
     without changing program output;
   - the stress layer maps onto the OoO core: injected ALAT flushes
     poison the predictor and drain the store queue ([mdp_poisons])
     instead of being silently ignored, and zero-fault stress points
     reproduce the unfaulted OoO baseline exactly;
   - OoO goldens: the whole OoO counter record of every workload and
     variant, of the LSQ kernel under each predictor, and of a faulted
     run on both cores holds bit-for-bit. *)

open Spec_driver
open Spec_machine
open Spec_stress

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let find = Spec_workloads.Workloads.find
let wname w = w.Spec_workloads.Workloads.name

(* ------------------------------------------------------------------ *)
(* Backend naming + dispatch parity                                    *)
(* ------------------------------------------------------------------ *)

let test_backend_names () =
  check_int "two core models" 2 (List.length Machine.all_backends);
  List.iter
    (fun b ->
      match Machine.backend_of_string (Machine.backend_name b) with
      | Some b' -> check_bool "name round-trips" true (b = b')
      | None -> Alcotest.failf "%s does not parse" (Machine.backend_name b))
    Machine.all_backends;
  check_bool "in-order aliases" true
    (Machine.backend_of_string "in-order" = Some Machine.Inorder);
  check_bool "out-of-order aliases" true
    (Machine.backend_of_string "out-of-order" = Some Machine.Ooo);
  check_bool "unknown name rejected" true
    (Machine.backend_of_string "vliw" = None)

let test_default_engine_is_inorder () =
  (* the default entry points run the in-order core *)
  let src = Spec_workloads.Workloads.train_source (find "art") in
  let r = Pipeline.compile_and_optimize src Pipeline.Base in
  let direct = Machine.run_sir r.Pipeline.prog in
  let dispatched = Machine.run_sir_on Machine.Inorder r.Pipeline.prog in
  check_str "output identical" direct.Machine.output
    dispatched.Machine.output;
  check_bool "counters identical" true
    (direct.Machine.perf = dispatched.Machine.perf)

(* in-order golden drift rejection through the dispatch path: the
   [test_engines.ml] goldens (captured from the pre-split seed
   simulator) must hold when the same workload is driven through
   [run_workload ~backend:Inorder] *)
let inorder_golden_dispatch w () =
  Experiments.machine_config := Machine.default_config;
  let b = Experiments.run_workload ~quick:true ~backend:Machine.Inorder w in
  List.iter
    (fun (vname, (r : Experiments.run)) ->
      let p = r.Experiments.r_machine.Machine.perf in
      let got =
        [ p.Machine.insns; p.Machine.cycles; p.Machine.data_cycles;
          p.Machine.loads_plain; p.Machine.loads_adv; p.Machine.loads_spec;
          p.Machine.checks; p.Machine.check_misses; p.Machine.stores;
          p.Machine.branches; p.Machine.rse_stall_cycles;
          p.Machine.max_stacked_regs;
          r.Experiments.r_machine.Machine.ret_int ]
      in
      let want =
        Test_engines.tuple_to_list
          (List.assoc vname
             (List.filter_map
                (fun (n, v, t) -> if n = wname w then Some (v, t) else None)
                Test_engines.machine_goldens))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "%s/%s in-order counters via dispatch" (wname w)
           vname)
        want got;
      (* the backend split added OoO-only counters; on the in-order core
         they must stay dead *)
      check_int "no br_mispredicts on inorder" 0 p.Machine.br_mispredicts;
      check_int "no lsq_replays on inorder" 0 p.Machine.lsq_replays;
      check_int "no mdp_poisons on inorder" 0 p.Machine.mdp_poisons)
    [ "noopt", b.Experiments.noopt; "base", b.Experiments.base;
      "profile", b.Experiments.prof_spec;
      "heuristic", b.Experiments.heur_spec;
      "aggressive", b.Experiments.aggressive ]

(* ------------------------------------------------------------------ *)
(* Cross-backend architectural agreement                               *)
(* ------------------------------------------------------------------ *)

let agreement_workload w () =
  Experiments.machine_config := Machine.default_config;
  let a = Experiments.run_workload ~quick:true ~backend:Machine.Inorder w in
  let b = Experiments.run_workload ~quick:true ~backend:Machine.Ooo w in
  (* the harness's own hard gate (output + instruction counts) *)
  Experiments.check_backend_agreement a b;
  List.iter2
    (fun (vname, (ri : Experiments.run)) (_, (ro : Experiments.run)) ->
      let mi = ri.Experiments.r_machine and mo = ro.Experiments.r_machine in
      let ctx = Printf.sprintf "%s/%s" (wname w) vname in
      check_str (ctx ^ ": output byte-identical") mi.Machine.output
        mo.Machine.output;
      check_int (ctx ^ ": return value") mi.Machine.ret_int
        mo.Machine.ret_int;
      let pi = mi.Machine.perf and po = mo.Machine.perf in
      check_int (ctx ^ ": insns") pi.Machine.insns po.Machine.insns;
      check_int (ctx ^ ": stores") pi.Machine.stores po.Machine.stores;
      check_int (ctx ^ ": branches") pi.Machine.branches po.Machine.branches;
      (* without injected faults both cores see the same program-order
         ALAT traffic: speculation behaves identically *)
      check_int (ctx ^ ": checks") pi.Machine.checks po.Machine.checks;
      check_int (ctx ^ ": check misses") pi.Machine.check_misses
        po.Machine.check_misses;
      (* timing is the one thing allowed to differ; it must still be a
         plausible cycle count, not zero or wildly off-scale (the OoO
         core may be slower on speculation-heavy variants — replay and
         mispredict penalties are real costs) *)
      check_bool (ctx ^ ": ooo cycles sane") true
        (po.Machine.cycles > 0 && po.Machine.cycles < 8 * pi.Machine.cycles))
    [ "noopt", a.Experiments.noopt; "base", a.Experiments.base;
      "profile", a.Experiments.prof_spec;
      "heuristic", a.Experiments.heur_spec;
      "aggressive", a.Experiments.aggressive ]
    [ "noopt", b.Experiments.noopt; "base", b.Experiments.base;
      "profile", b.Experiments.prof_spec;
      "heuristic", b.Experiments.heur_spec;
      "aggressive", b.Experiments.aggressive ]

(* ------------------------------------------------------------------ *)
(* OoO counter goldens                                                 *)
(* ------------------------------------------------------------------ *)

(* The full OoO counter record — the 15 fields of [Machine.counters] in
   declaration order, then [ret_int] — captured from the out-of-order
   core on the train inputs before its functional walk was shared with
   the in-order core.  Timing refactors must keep every field. *)
let ooo_goldens = [
  ("art", "noopt",
   (244128, 109295, 20872, 37348, 0, 0, 0, 0, 11406, 20063, 0, 101, 130, 0, 0, 0));
  ("art", "base",
   (155829, 93104, 20949, 24221, 0, 0, 0, 0, 11406, 20063, 0, 80, 130, 0, 0, 0));
  ("art", "profile",
   (155829, 83679, 11643, 14621, 4800, 0, 4800, 0, 11406, 20063, 0, 79, 130, 0, 0, 0));
  ("art", "heuristic",
   (155829, 85958, 13182, 9701, 4920, 0, 9600, 4800, 11406, 20063, 0, 79, 130, 0, 0, 0));
  ("art", "aggressive",
   (136629, 83502, 15548, 9701, 4920, 0, 0, 0, 11406, 20063, 0, 79, 130, 0, 0, 0));
  ("ammp", "noopt",
   (249962, 143720, 14660, 38682, 0, 0, 0, 0, 10090, 14063, 0, 149, 370, 0, 0, 0));
  ("ammp", "base",
   (167249, 124869, 11097, 29073, 0, 3, 0, 0, 10090, 14063, 0, 113, 370, 0, 0, 0));
  ("ammp", "profile",
   (169409, 128454, 11814, 20433, 0, 1083, 8640, 2, 10090, 14063, 0, 116, 370, 0, 0, 0));
  ("ammp", "heuristic",
   (183089, 131664, 22058, 11793, 0, 2163, 23040, 14400, 10090, 14063, 0, 121, 370, 0, 0, 0));
  ("ammp", "aggressive",
   (137009, 125094, 23499, 11793, 0, 2163, 0, 0, 10090, 14063, 0, 113, 370, 0, 0, 0));
  ("equake", "noopt",
   (91992, 34422, 2224, 13011, 0, 0, 0, 0, 4455, 4765, 0, 251, 130, 0, 0, 0));
  ("equake", "base",
   (72875, 30981, 2817, 11560, 0, 0, 0, 0, 4455, 4765, 0, 192, 130, 0, 0, 0));
  ("equake", "profile",
   (76475, 26187, 2101, 6520, 1440, 360, 5040, 3, 4455, 4765, 0, 192, 130, 0, 0, 0));
  ("equake", "heuristic",
   (76475, 26187, 2101, 6520, 1440, 360, 5040, 3, 4455, 4765, 0, 192, 130, 0, 0, 0));
  ("equake", "aggressive",
   (66395, 24023, 3427, 6520, 1440, 360, 0, 0, 4455, 4765, 0, 192, 130, 0, 0, 0));
  ("gzip", "noopt",
   (299530, 211982, 48499, 35054, 0, 0, 0, 0, 5264, 34479, 0, 106, 7486, 0, 0, 0));
  ("gzip", "base",
   (269072, 194894, 42973, 19258, 0, 583, 0, 0, 5264, 39356, 0, 100, 7486, 0, 0, 0));
  ("gzip", "profile",
   (269654, 194376, 42468, 18094, 582, 583, 582, 0, 5264, 39356, 0, 100, 7486, 0, 0, 0));
  ("gzip", "heuristic",
   (269654, 194376, 42468, 18094, 582, 583, 582, 0, 5264, 39356, 0, 100, 7486, 0, 0, 0));
  ("gzip", "aggressive",
   (267326, 193794, 42470, 18094, 582, 583, 0, 0, 5264, 39356, 0, 97, 7486, 0, 0, 0));
  ("mcf", "noopt",
   (617846, 294624, 61755, 96985, 0, 0, 0, 0, 22994, 69036, 0, 122, 6120, 0, 0, 0));
  ("mcf", "base",
   (459996, 258608, 61119, 71963, 0, 0, 0, 0, 22994, 75069, 0, 91, 6120, 0, 0, 0));
  ("mcf", "profile",
   (459996, 252945, 58829, 53996, 12000, 0, 5967, 0, 22994, 75069, 0, 91, 6120, 0, 0, 0));
  ("mcf", "heuristic",
   (459996, 252945, 58829, 53996, 12000, 0, 5967, 0, 22994, 75069, 0, 91, 6120, 0, 0, 0));
  ("mcf", "aggressive",
   (448062, 252942, 61265, 53996, 12000, 0, 0, 0, 22994, 75069, 0, 91, 6120, 0, 0, 0));
  ("parser", "noopt",
   (354405, 156255, 10536, 46858, 0, 0, 0, 0, 4788, 60574, 0, 70, 4130, 0, 0, 0));
  ("parser", "base",
   (339363, 152829, 9131, 41044, 0, 1, 0, 0, 4788, 78336, 0, 65, 4130, 0, 0, 0));
  ("parser", "profile",
   (340731, 154197, 10528, 38308, 1368, 1, 1368, 0, 4788, 78336, 0, 65, 4130, 0, 0, 0));
  ("parser", "heuristic",
   (340731, 154197, 10528, 38308, 1368, 1, 1368, 0, 4788, 78336, 0, 65, 4130, 0, 0, 0));
  ("parser", "aggressive",
   (335259, 152829, 10528, 38308, 1368, 1, 0, 0, 4788, 78336, 0, 62, 4130, 0, 0, 0));
  ("twolf", "noopt",
   (92124, 49128, 5934, 12518, 0, 0, 0, 0, 2368, 9926, 0, 108, 1751, 0, 0, 0));
  ("twolf", "base",
   (79608, 48655, 6924, 8943, 0, 0, 0, 0, 2368, 11688, 0, 97, 1751, 0, 0, 0));
  ("twolf", "profile",
   (79608, 48551, 5737, 3618, 3588, 0, 1737, 0, 2368, 11688, 0, 95, 1751, 0, 0, 0));
  ("twolf", "heuristic",
   (79608, 48551, 5737, 3618, 3588, 0, 1737, 0, 2368, 11688, 0, 95, 1751, 0, 0, 0));
  ("twolf", "aggressive",
   (72660, 46918, 5841, 3618, 3588, 0, 0, 0, 2368, 11688, 0, 86, 1751, 0, 0, 0));
  ("vpr", "noopt",
   (149926, 88435, 15823, 18528, 0, 0, 0, 0, 6256, 17273, 0, 113, 760, 0, 0, 0));
  ("vpr", "base",
   (119907, 76420, 10562, 12273, 0, 0, 0, 0, 6256, 17273, 0, 86, 760, 0, 0, 0));
  ("vpr", "profile",
   (125157, 78676, 10554, 10773, 750, 0, 3000, 0, 6256, 17273, 0, 86, 760, 0, 0, 0));
  ("vpr", "heuristic",
   (125157, 78676, 10554, 10773, 750, 0, 3000, 0, 6256, 17273, 0, 86, 760, 0, 0, 0));
  ("vpr", "aggressive",
   (119157, 75676, 8304, 10773, 750, 0, 0, 0, 6256, 17273, 0, 85, 760, 0, 0, 0));
  ("cipher", "noopt",
   (11766, 4156, 586, 1229, 0, 0, 0, 0, 531, 1607, 0, 62, 7, 0, 0, 0));
  ("cipher", "base",
   (9549, 3891, 776, 780, 0, 0, 0, 0, 531, 1607, 0, 50, 7, 0, 0, 0));
  ("cipher", "profile",
   (9741, 3702, 398, 396, 192, 0, 192, 0, 531, 1607, 0, 50, 7, 0, 0, 0));
  ("cipher", "heuristic",
   (9741, 3702, 398, 396, 192, 0, 192, 0, 531, 1607, 0, 50, 7, 0, 0, 0));
  ("cipher", "aggressive",
   (8973, 3702, 587, 396, 192, 0, 0, 0, 531, 1607, 0, 50, 7, 0, 0, 0));
  ("ctsel", "noopt",
   (15859, 4499, 296, 1838, 0, 0, 0, 0, 499, 1221, 0, 62, 6, 0, 0, 0));
  ("ctsel", "base",
   (11976, 3815, 584, 1452, 0, 0, 0, 0, 499, 1221, 0, 50, 6, 0, 0, 0));
  ("ctsel", "profile",
   (11976, 3815, 584, 876, 288, 0, 288, 0, 499, 1221, 0, 49, 6, 0, 0, 0));
  ("ctsel", "heuristic",
   (11976, 3815, 584, 876, 288, 0, 288, 0, 499, 1221, 0, 49, 6, 0, 0, 0));
  ("ctsel", "aggressive",
   (11400, 3527, 299, 876, 288, 0, 0, 0, 499, 1221, 0, 48, 6, 0, 0, 0));
]

(* [aliasing_src] (below) on the OoO core under each predictor *)
let ooo_mdp_goldens = [
  ("none",
   (7212, 2116, 307, 601, 0, 0, 0, 0, 601, 602, 0, 26, 1, 100, 0, 0));
  ("store-set",
   (7212, 2116, 203, 601, 0, 0, 0, 0, 601, 602, 0, 26, 1, 1, 0, 0));
  ("last-violator",
   (7212, 2116, 203, 601, 0, 0, 0, 0, 601, 602, 0, 26, 1, 1, 0, 0));
]

(* art's heuristic build under a flush + chaos-invalidation plan on both
   cores: the counter record, the ALAT's (live, inserts,
   store_invalidations, capacity_evictions), then the injector's own
   (flushes, invalidations) *)
let faulted_art_goldens = [
  ("inorder",
   (155829, 245548, 87866, 9701, 4920, 0, 9600, 6978, 11406, 20063, 0, 79, 0, 0, 0, 0),
   (0, 11898, 2409, 0), (3836, 4991));
  ("ooo",
   (155829, 83822, 11311, 9701, 4920, 0, 9600, 5069, 11406, 20063, 0, 79, 130, 0, 1309, 0),
   (0, 9989, 4389, 0), (1309, 1701));
]

let tuple16_to_list (a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p) =
  [ a; b; c; d; e; f; g; h; i; j; k; l; m; n; o; p ]

let all_counters (m : Machine.result) =
  let p = m.Machine.perf in
  [ p.Machine.insns; p.Machine.cycles; p.Machine.data_cycles;
    p.Machine.loads_plain; p.Machine.loads_adv; p.Machine.loads_spec;
    p.Machine.checks; p.Machine.check_misses; p.Machine.stores;
    p.Machine.branches; p.Machine.rse_stall_cycles;
    p.Machine.max_stacked_regs; p.Machine.br_mispredicts;
    p.Machine.lsq_replays; p.Machine.mdp_poisons; m.Machine.ret_int ]

let ooo_golden_workload w () =
  Experiments.machine_config := Machine.default_config;
  let b = Experiments.run_workload ~quick:true ~backend:Machine.Ooo w in
  List.iter
    (fun (vname, (r : Experiments.run)) ->
      let want =
        List.find_map
          (fun (n, v, t) ->
            if n = wname w && v = vname then Some (tuple16_to_list t)
            else None)
          ooo_goldens
      in
      Alcotest.(check (option (list int)))
        (Printf.sprintf "%s/%s OoO counters" (wname w) vname)
        want (Some (all_counters r.Experiments.r_machine)))
    [ "noopt", b.Experiments.noopt; "base", b.Experiments.base;
      "profile", b.Experiments.prof_spec;
      "heuristic", b.Experiments.heur_spec;
      "aggressive", b.Experiments.aggressive ]

(* ------------------------------------------------------------------ *)
(* LSQ misspeculation + memory-dependence prediction                   *)
(* ------------------------------------------------------------------ *)

(* A store whose address takes a long dependence chain to resolve,
   immediately followed by a load of A[0] that the OoO core issues
   underneath it; every third iteration the store actually lands on
   A[0], so the eager load misspeculates and replays.  The predictors
   must learn the store-load pair and suppress the replays. *)
let aliasing_src =
  "int A[64];\n\
   int s;\n\
   int main() {\n\
  \  int i; int j;\n\
  \  i = 0; s = 0;\n\
  \  while (i < 300) {\n\
  \    j = (i / 3) * 3 - i + 2;\n\
  \    A[j] = i;\n\
  \    s = s + A[0];\n\
  \    i = i + 1;\n\
  \  }\n\
  \  print_int(s);\n\
  \  return 0;\n\
   }\n"

let ooo_with_mdp mdp =
  { Machine.default_config with Machine.mdp }

let test_lsq_replay_and_predictors () =
  let r = Pipeline.compile_and_optimize aliasing_src Pipeline.Base in
  let inorder = Machine.run_sir r.Pipeline.prog in
  let run mdp =
    Machine.run_sir_on Machine.Ooo ~config:(ooo_with_mdp mdp)
      r.Pipeline.prog
  in
  let none = run Machine.Mdp_none in
  let ss = run Machine.Mdp_store_set in
  let lv = run Machine.Mdp_last_violator in
  (* replays are a timing event, never an architectural one *)
  List.iter
    (fun (what, (m : Machine.result)) ->
      check_str (what ^ ": output") inorder.Machine.output m.Machine.output;
      check_int (what ^ ": insns") inorder.Machine.perf.Machine.insns
        m.Machine.perf.Machine.insns)
    [ "mdp=none", none; "mdp=store-set", ss; "mdp=last-violator", lv ];
  let replays (m : Machine.result) = m.Machine.perf.Machine.lsq_replays in
  check_bool "unpredicted aliasing loads replay" true (replays none > 0);
  check_bool "store-set suppresses replays" true
    (replays ss < replays none);
  check_bool "last-violator suppresses replays" true
    (replays lv < replays none);
  (* waiting on predicted dependences must cost less than replaying
     every violation *)
  check_bool "prediction beats replay storms" true
    (ss.Machine.perf.Machine.cycles <= none.Machine.perf.Machine.cycles)

(* ------------------------------------------------------------------ *)
(* Stress-layer mapping: ALAT faults -> LSQ flush / predictor poison   *)
(* ------------------------------------------------------------------ *)

let test_faults_poison_predictor () =
  let r = Pipeline.compile_and_optimize aliasing_src Pipeline.Base in
  let clean = Machine.run_sir_on Machine.Ooo r.Pipeline.prog in
  let plan = { (Faults.null 11) with Faults.flush_period = 32 } in
  let inj () =
    match Faults.injector_opt plan ~scope:[ "backends-test"; "machine" ] with
    | Some i -> i
    | None -> Alcotest.fail "flush plan must build an injector"
  in
  let faulted =
    Machine.run_sir_on Machine.Ooo ~faults:(inj ()) r.Pipeline.prog
  in
  (* injected flushes drain the store queue and poison the predictor
     tables — visible in the counter, invisible in the architecture *)
  check_bool "flushes poison the mdp" true
    (faulted.Machine.perf.Machine.mdp_poisons > 0);
  check_int "clean run has no poisons" 0
    clean.Machine.perf.Machine.mdp_poisons;
  check_str "output survives fault injection" clean.Machine.output
    faulted.Machine.output;
  check_int "insns survive fault injection" clean.Machine.perf.Machine.insns
    faulted.Machine.perf.Machine.insns;
  (* same plan on the in-order core: the ALAT path, not the LSQ path *)
  let inorder_faulted =
    Machine.run_sir_on Machine.Inorder ~faults:(inj ()) r.Pipeline.prog
  in
  check_str "in-order output survives too" clean.Machine.output
    inorder_faulted.Machine.output;
  check_int "no mdp to poison on inorder" 0
    inorder_faulted.Machine.perf.Machine.mdp_poisons

(* zero-fault stress points on the OoO backend must reproduce the
   unfaulted OoO baseline exactly (the sweep takes the unfaulted code
   path, not a faulted path that happens to inject nothing) *)
let test_ooo_zero_fault_reproduces_baseline () =
  Experiments.machine_config := Machine.default_config;
  let w = find "art" in
  let zero =
    [ { Experiments.sp_label = "0%";
        Experiments.sp_plan = Faults.null 1 } ]
  in
  let cells =
    Experiments.stress_workload ~quick:true ~seed:1 ~points:zero
      ~backend:Machine.Ooo w
  in
  check_bool "sweep produced cells" true (cells <> []);
  let baseline = Experiments.run_workload ~quick:true ~backend:Machine.Ooo w in
  List.iter
    (fun (c : Experiments.stress_cell) ->
      check_str "cells carry the backend" "ooo" c.Experiments.sc_backend;
      check_int "no adversary flips" 0 c.Experiments.sc_adv_flips;
      check_int "no injected faults" 0
        (c.Experiments.sc_m_flushes + c.Experiments.sc_m_invs);
      let (r : Experiments.run) =
        match c.Experiments.sc_variant with
        | "base" -> baseline.Experiments.base
        | "profile" -> baseline.Experiments.prof_spec
        | "heuristic" -> baseline.Experiments.heur_spec
        | "aggressive" -> baseline.Experiments.aggressive
        | v -> Alcotest.failf "unexpected stress variant %s" v
      in
      let p = r.Experiments.r_machine.Machine.perf in
      check_int
        (c.Experiments.sc_variant ^ ": cycles reproduce")
        p.Machine.cycles c.Experiments.sc_cycles;
      check_int
        (c.Experiments.sc_variant ^ ": insns reproduce")
        p.Machine.insns c.Experiments.sc_insns;
      check_int
        (c.Experiments.sc_variant ^ ": checks reproduce")
        p.Machine.checks c.Experiments.sc_checks;
      check_int
        (c.Experiments.sc_variant ^ ": misses reproduce")
        p.Machine.check_misses c.Experiments.sc_misses)
    cells

let test_ooo_mdp_goldens () =
  let r = Pipeline.compile_and_optimize aliasing_src Pipeline.Base in
  List.iter
    (fun (name, mdp) ->
      Alcotest.(check (list int))
        ("mdp=" ^ name ^ " OoO counters")
        (tuple16_to_list (List.assoc name ooo_mdp_goldens))
        (all_counters
           (Machine.run_sir_on Machine.Ooo ~config:(ooo_with_mdp mdp)
              r.Pipeline.prog)))
    [ "none", Machine.Mdp_none; "store-set", Machine.Mdp_store_set;
      "last-violator", Machine.Mdp_last_violator ]

let test_faulted_art_goldens () =
  let src = Spec_workloads.Workloads.train_source (find "art") in
  let r = Pipeline.compile_and_optimize src Pipeline.Spec_heuristic in
  let plan =
    { (Faults.null 11) with Faults.flush_period = 64; inv_ppm = 20_000 }
  in
  List.iter
    (fun (name, core) ->
      let faults = Faults.injector_opt plan ~scope:[ "backends-golden"; "art" ] in
      let m = Machine.run_sir_on core ?faults r.Pipeline.prog in
      let _, want, (live, inserts, invs, evictions), (flushes, injected) =
        List.find (fun (n, _, _, _) -> n = name) faulted_art_goldens
      in
      Alcotest.(check (list int)) (name ^ " faulted counters")
        (tuple16_to_list want) (all_counters m);
      let a = m.Machine.alat in
      Alcotest.(check (list int)) (name ^ " faulted ALAT counters")
        [ live; inserts; invs; evictions ]
        [ Alat.live a; a.Alat.inserts; a.Alat.store_invalidations;
          a.Alat.capacity_evictions ];
      let inj =
        match faults with
        | Some inj -> inj
        | None -> Alcotest.fail "the plan must build an injector"
      in
      Alcotest.(check (list int)) (name ^ " injected flushes/invalidations")
        [ flushes; injected ]
        [ Faults.flushes inj; Faults.invalidations inj ])
    [ "inorder", Machine.Inorder; "ooo", Machine.Ooo ]

let suite =
  [ Alcotest.test_case "backend names + dispatch" `Quick test_backend_names;
    Alcotest.test_case "default engine is the in-order core" `Quick
      test_default_engine_is_inorder;
    Alcotest.test_case "LSQ replays + memory-dependence predictors" `Quick
      test_lsq_replay_and_predictors;
    Alcotest.test_case "injected faults poison the OoO predictor" `Quick
      test_faults_poison_predictor;
    Alcotest.test_case "OoO zero-fault stress reproduces baseline" `Slow
      test_ooo_zero_fault_reproduces_baseline;
    Alcotest.test_case "OoO goldens: mdp policies" `Quick
      test_ooo_mdp_goldens;
    Alcotest.test_case "goldens: faulted art on both cores" `Quick
      test_faulted_art_goldens ]
  @ List.map
      (fun w ->
        Alcotest.test_case
          ("in-order goldens via dispatch: " ^ wname w)
          `Slow (inorder_golden_dispatch w))
      (List.map find [ "art"; "equake"; "gzip" ])
  @ List.map
      (fun w ->
        Alcotest.test_case ("OoO goldens: " ^ wname w) `Slow
          (ooo_golden_workload w))
      Spec_workloads.Workloads.all
  @ List.map
      (fun w ->
        Alcotest.test_case
          ("backend agreement: " ^ wname w)
          `Slow (agreement_workload w))
      Spec_workloads.Workloads.all

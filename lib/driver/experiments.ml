(** Experiment harness: regenerates every table and figure of the paper's
    evaluation (§5) on the workload kernels.

    Methodology, as in the paper: profiles (edge + alias) are collected on
    each kernel's *train* input; every pipeline variant is compiled with
    that profile and measured on the *ref* input on the ITL machine
    simulator.  All variants must produce the reference output, and the
    vm must reproduce the machine's output on every variant — the
    harness asserts both, so every experiment run doubles as an
    end-to-end correctness check of speculation and recovery.  The
    semantic oracle ({!Spec_prof.Interp_ref}) gates the safety sweep. *)

open Spec_ir
open Spec_prof
open Spec_machine
open Spec_workloads

type run = {
  r_machine : Machine.result;
  r_stats : Spec_ssapre.Ssapre.stats;
  r_report : Passes.report;  (** the pass reports of this compile *)
}

type bench_result = {
  wname : string;
  backend : Machine.backend;  (** core model the variants ran on *)
  fp : bool;
  noopt : run;
  base : run;
  prof_spec : run;
  heur_spec : run;
  aggressive : run;
  reuse_frac : float;  (** simulation-based potential load reuse (Fig 12a) *)
}

let machine_config = ref Machine.default_config

(** Lower an optimized program to ITL and list-schedule it, as every
    table does: the paper's O3 baseline (ORC) schedules everything. *)
let lower_scheduled prog =
  let mp = Spec_codegen.Codegen.lower prog in
  ignore (Spec_codegen.Schedule.run mp : Spec_codegen.Schedule.stats);
  mp

(** Compile the ref input under [variant], lower and schedule it
    ({!lower_scheduled}), and run it on the machine backend [backend]
    (default: the in-order EPIC core).  The same optimized program is
    then executed on the vm, which must reproduce the machine's output
    byte-for-byte — a vm/machine divergence fails the measurement rather
    than skewing a table. *)
let run_variant ?(quick = false) ?(backend = Machine.Inorder)
    (w : Workloads.workload) profile variant : run =
  let params = if quick then w.Workloads.train else w.Workloads.ref_ in
  let prog = Lower.compile (w.Workloads.source params) in
  let r =
    Pipeline.optimize ~edge_profile:(Some profile) prog variant
  in
  let m =
    Machine.run_on backend ~config:!machine_config
      (lower_scheduled r.Pipeline.prog)
  in
  let i = Vm.run_program (Lazy.force r.Pipeline.vm) in
  if i.Interp.output <> m.Machine.output then
    failwith
      (Printf.sprintf "experiment %s/%s: vm output diverged from the machine"
         w.Workloads.name
         (Pipeline.variant_name variant));
  { r_machine = m; r_stats = r.Pipeline.stats; r_report = r.Pipeline.report }

(* Fig 12a: load-reuse potential, measured on the base-optimized program *)
let reuse_fraction ?(quick = false) (w : Workloads.workload) profile : float =
  let params = if quick then w.Workloads.train else w.Workloads.ref_ in
  let reuse_prog = Lower.compile (w.Workloads.source params) in
  let rr = Pipeline.optimize ~edge_profile:(Some profile) reuse_prog Pipeline.Base in
  let lr, _ = Load_reuse.analyse rr.Pipeline.prog in
  Load_reuse.reuse_fraction lr

let run_workload ?(quick = false) ?(backend = Machine.Inorder)
    (w : Workloads.workload) : bench_result =
  let train_prog = Lower.compile (Workloads.train_source w) in
  let profile, _ = Profiler.profile train_prog in
  (* The six measurement tasks are independent; fan them out to the
     domain pool.  [Parpool.parmap] joins in submission order, so the
     result record — and hence all table output — is identical to the
     sequential run. *)
  let tasks =
    [ (fun () -> `Run (run_variant ~quick ~backend w profile Pipeline.Noopt));
      (fun () -> `Run (run_variant ~quick ~backend w profile Pipeline.Base));
      (fun () -> `Run (run_variant ~quick ~backend w profile (Pipeline.Spec_profile profile)));
      (fun () -> `Run (run_variant ~quick ~backend w profile Pipeline.Spec_heuristic));
      (fun () -> `Run (run_variant ~quick ~backend w profile Pipeline.Aggressive));
      (fun () -> `Reuse (reuse_fraction ~quick w profile)) ]
  in
  let noopt, base, prof_spec, heur_spec, aggressive, reuse_frac =
    match Parpool.parmap (fun f -> f ()) tasks with
    | [ `Run noopt; `Run base; `Run prof_spec; `Run heur_spec;
        `Run aggressive; `Reuse reuse_frac ] ->
      noopt, base, prof_spec, heur_spec, aggressive, reuse_frac
    | _ -> assert false
  in
  (* correctness gate: every variant reproduces the unoptimized output.
     The aggressive upper bound is only correct when no aliasing actually
     occurs; kernels with real aliasing legitimately diverge there *)
  let expect = noopt.r_machine.Machine.output in
  List.iter
    (fun (name, r) ->
      if r.r_machine.Machine.output <> expect then
        failwith
          (Printf.sprintf "experiment %s: variant %s diverged" w.Workloads.name
             name))
    [ "base", base; "profile", prof_spec; "heuristic", heur_spec ];
  { wname = w.Workloads.name; backend; fp = w.Workloads.fp; noopt;
    base; prof_spec; heur_spec; aggressive; reuse_frac }

(** Run a sweep of workloads on the domain pool; results are in input
    order, so output is independent of [--jobs].  The per-workload
    variant fan-out nests inside this one — [Parpool.await] helps with
    queued tasks, so the nesting cannot deadlock. *)
let run_workloads ?(quick = false) ?(backend = Machine.Inorder)
    (ws : Workloads.workload list) : bench_result list =
  Parpool.parmap (fun w -> run_workload ~quick ~backend w) ws

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let pct x = 100. *. x

let load_reduction ~(base : run) ~(spec : run) =
  let lb = Machine.loads_retired base.r_machine.Machine.perf in
  let ls = Machine.loads_retired spec.r_machine.Machine.perf in
  if lb = 0 then 0. else pct (1. -. float_of_int ls /. float_of_int lb)

let speedup ~(base : run) ~(spec : run) =
  let cb = base.r_machine.Machine.perf.Machine.cycles in
  let cs = spec.r_machine.Machine.perf.Machine.cycles in
  if cs = 0 then 0. else pct (float_of_int cb /. float_of_int cs -. 1.)

let data_cycle_reduction ~(base : run) ~(spec : run) =
  let db = base.r_machine.Machine.perf.Machine.data_cycles in
  let ds = spec.r_machine.Machine.perf.Machine.data_cycles in
  if db = 0 then 0. else pct (1. -. float_of_int ds /. float_of_int db)

let check_pct (r : run) =
  let p = r.r_machine.Machine.perf in
  let total = Machine.loads_retired_with_checks p in
  if total = 0 then 0. else pct (float_of_int p.Machine.checks /. float_of_int total)

let misspec_ratio (r : run) =
  let p = r.r_machine.Machine.perf in
  if p.Machine.checks = 0 then 0.
  else pct (float_of_int p.Machine.check_misses /. float_of_int p.Machine.checks)

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let fig10_header =
  "benchmark | load reduction % | speedup % | data-access-cycle reduction %"

let fig10_row (b : bench_result) =
  Printf.sprintf "%-9s | %16.1f | %9.1f | %29.1f" b.wname
    (load_reduction ~base:b.base ~spec:b.prof_spec)
    (speedup ~base:b.base ~spec:b.prof_spec)
    (data_cycle_reduction ~base:b.base ~spec:b.prof_spec)

let fig11_header =
  "benchmark | check loads / loads retired % | mis-speculation ratio %"

let fig11_row (b : bench_result) =
  Printf.sprintf "%-9s | %29.2f | %23.2f" b.wname (check_pct b.prof_spec)
    (misspec_ratio b.prof_spec)

let fig12_header =
  "benchmark | potential (load-reuse sim) % | potential (aggressive promo) % | achieved %"

let fig12_row (b : bench_result) =
  Printf.sprintf "%-9s | %28.1f | %30.1f | %10.1f" b.wname
    (pct b.reuse_frac)
    (load_reduction ~base:b.base ~spec:b.aggressive)
    (load_reduction ~base:b.base ~spec:b.prof_spec)

let heuristics_header =
  "benchmark | profile: loads% / speedup% | heuristic: loads% / speedup%"

let heuristics_row (b : bench_result) =
  Printf.sprintf "%-9s | %10.1f / %8.1f | %12.1f / %8.1f" b.wname
    (load_reduction ~base:b.base ~spec:b.prof_spec)
    (speedup ~base:b.base ~spec:b.prof_spec)
    (load_reduction ~base:b.base ~spec:b.heur_spec)
    (speedup ~base:b.base ~spec:b.heur_spec)

let rse_header =
  "benchmark | base max stacked regs | spec max stacked regs | spec RSE stall cycles"

let rse_row (b : bench_result) =
  Printf.sprintf "%-9s | %21d | %21d | %21d" b.wname
    b.base.r_machine.Machine.perf.Machine.max_stacked_regs
    b.prof_spec.r_machine.Machine.perf.Machine.max_stacked_regs
    b.prof_spec.r_machine.Machine.perf.Machine.rse_stall_cycles

(* ------------------------------------------------------------------ *)
(* Backend comparison (in-order EPIC vs out-of-order)                  *)
(* ------------------------------------------------------------------ *)

(** Hard agreement gate: two backends measuring the same workload must
    report byte-identical program output (and instruction counts — the
    dynamic trace is shared) for every variant.  Raises on divergence;
    the bench's [backends] table runs this before it prints. *)
let check_backend_agreement (a : bench_result) (b : bench_result) =
  List.iter
    (fun (vname, sel) ->
      let ra = (sel a).r_machine and rb = (sel b).r_machine in
      if ra.Machine.output <> rb.Machine.output then
        failwith
          (Printf.sprintf "backend disagreement on %s/%s: %s vs %s output"
             a.wname vname
             (Machine.backend_name a.backend)
             (Machine.backend_name b.backend));
      if ra.Machine.perf.Machine.insns <> rb.Machine.perf.Machine.insns then
        failwith
          (Printf.sprintf
             "backend disagreement on %s/%s: instruction counts differ"
             a.wname vname))
    [ ("noopt", fun r -> r.noopt); ("base", fun r -> r.base);
      ("profile", fun r -> r.prof_spec); ("heuristic", fun r -> r.heur_spec);
      ("aggressive", fun r -> r.aggressive) ]

let backends_header =
  "benchmark | inorder: speedup% / dcyc-red% | ooo: speedup% / dcyc-red% | ooo replays base>spec | hw captured pts"

(** Side-by-side paper metrics: the speculative-vs-base cycle delta on
    each core.  [hw captured pts] is the in-order win minus the OoO win
    in percentage points — the part of the compiler's speculation gain
    that an LSQ + dependence predictor already gets for free; what
    remains is what ld.a/ld.c still buys on modern hardware. *)
let backends_row ~(inorder : bench_result) ~(ooo : bench_result) =
  let replays (r : run) = r.r_machine.Machine.perf.Machine.lsq_replays in
  let win_in = speedup ~base:inorder.base ~spec:inorder.prof_spec in
  let win_ooo = speedup ~base:ooo.base ~spec:ooo.prof_spec in
  Printf.sprintf "%-9s | %13.1f / %13.1f | %9.1f / %13.1f | %10d>%-10d | %15.1f"
    inorder.wname win_in
    (data_cycle_reduction ~base:inorder.base ~spec:inorder.prof_spec)
    win_ooo
    (data_cycle_reduction ~base:ooo.base ~spec:ooo.prof_spec)
    (replays ooo.base) (replays ooo.prof_spec)
    (win_in -. win_ooo)

(** §5.1 case study on the equake smvp kernel. *)
type smvp_study = {
  checks_pct : float;        (** % of load-class operations that are checks *)
  spec_speedup : float;      (** speculative vs base *)
  tuned_speedup : float;     (** aggressive ("hand-tuned") vs base *)
}

let smvp_case_study (b : bench_result) : smvp_study =
  { checks_pct = check_pct b.prof_spec;
    spec_speedup = speedup ~base:b.base ~spec:b.prof_spec;
    tuned_speedup = speedup ~base:b.base ~spec:b.aggressive }

(* ------------------------------------------------------------------ *)
(* Memory-dependence-predictor sweep (out-of-order core)               *)
(* ------------------------------------------------------------------ *)

(** One (workload, predictor) cell of the [--table mdp] sweep: the
    profile-speculative build on the OoO core under one
    memory-dependence prediction policy. *)
type mdp_cell = {
  md_wname : string;
  md_policy : Machine.mdp;
  md_cycles : int;
  md_insns : int;
  md_replays : int;  (** LSQ order-violation replays *)
}

let mdp_name = function
  | Machine.Mdp_store_set -> "store-set"
  | Machine.Mdp_last_violator -> "last-violator"
  | Machine.Mdp_none -> "none"

let all_mdps =
  [ Machine.Mdp_store_set; Machine.Mdp_last_violator; Machine.Mdp_none ]

(** Sweep one workload's *base* (non-speculative) build across the
    memory-dependence predictors.  Base is the interesting build: its
    loads still sit below stores in program order, so the OoO core's
    eager issue is what discovers the conflicts (on the speculative
    builds the compiler has already replaced those loads with checks and
    the LSQ sees nothing — the compile-time/hardware overlap §3.6
    documents).  The program is compiled and resolved once; every policy
    re-runs it on the OoO core and must reproduce the same output and
    instruction count (prediction is a timing-only concern — a
    difference is a simulator bug and fails the sweep). *)
let mdp_cells_of ~name (prog : Sir.prog) : mdp_cell list =
  let rp = Machine.resolve (lower_scheduled prog) in
  let runs =
    List.map
      (fun policy ->
        let config = { !machine_config with Machine.mdp = policy } in
        (policy, Machine.run_resolved_on Machine.Ooo ~config rp))
      all_mdps
  in
  (match runs with
   | (_, first) :: rest ->
     List.iter
       (fun (policy, m) ->
         if m.Machine.output <> first.Machine.output then
           failwith
             (Printf.sprintf "mdp sweep %s: output differs under %s" name
                (mdp_name policy));
         if m.Machine.perf.Machine.insns <> first.Machine.perf.Machine.insns
         then
           failwith
             (Printf.sprintf
                "mdp sweep %s: instruction count differs under %s" name
                (mdp_name policy)))
       rest
   | [] -> ());
  List.map
    (fun (policy, m) ->
      { md_wname = name;
        md_policy = policy;
        md_cycles = m.Machine.perf.Machine.cycles;
        md_insns = m.Machine.perf.Machine.insns;
        md_replays = m.Machine.perf.Machine.lsq_replays })
    runs

let mdp_workload ?(quick = false) (w : Workloads.workload) : mdp_cell list =
  let train_prog = Lower.compile (Workloads.train_source w) in
  let profile, _ = Profiler.profile train_prog in
  let params = if quick then w.Workloads.train else w.Workloads.ref_ in
  let prog = Lower.compile (w.Workloads.source params) in
  let r = Pipeline.optimize ~edge_profile:(Some profile) prog Pipeline.Base in
  mdp_cells_of ~name:w.Workloads.name r.Pipeline.prog

(* The workload kernels never replay — their store addresses resolve
   inside the OoO window before any conflicting load issues — so an
   adversarial rider differentiates the predictors: the store address
   takes a division chain to resolve, the next load issues eagerly
   underneath it, and every fifth iteration they collide. *)
let mdp_chain_src n =
  Printf.sprintf
    "int A[64];\n\
     int acc;\n\
     int main() {\n\
    \  int i; int j;\n\
    \  i = 0; acc = 0;\n\
    \  while (i < %d) {\n\
    \    j = (i / 5) * 5 - i + 4;\n\
    \    A[j] = i;\n\
    \    acc = acc + A[4];\n\
    \    i = i + 1;\n\
    \  }\n\
    \  print_int(acc);\n\
    \  return 0;\n\
     }\n"
    n

let mdp_chain ?(quick = false) () : mdp_cell list =
  let prog = Lower.compile (mdp_chain_src (if quick then 300 else 2000)) in
  let r = Pipeline.optimize prog Pipeline.Base in
  mdp_cells_of ~name:"chain" r.Pipeline.prog

(** Sweep every workload × predictor on the domain pool, plus the
    adversarial chain kernel; cells are grouped by unit in input order
    (deterministic in [--jobs]). *)
let run_mdp_sweep ?(quick = false) (ws : Workloads.workload list) :
    mdp_cell list =
  List.concat (Parpool.parmap (fun w -> mdp_workload ~quick w) ws)
  @ mdp_chain ~quick ()

(** Cycle cost of a cell versus the same workload under [Mdp_none], in
    percent (negative = the predictor is faster than always-speculate). *)
let mdp_overhead (cells : mdp_cell list) (c : mdp_cell) =
  match
    List.find_opt
      (fun b -> b.md_wname = c.md_wname && b.md_policy = Machine.Mdp_none)
      cells
  with
  | Some b when b.md_cycles > 0 ->
    pct (float_of_int c.md_cycles /. float_of_int b.md_cycles -. 1.)
  | _ -> 0.

let mdp_header =
  "workload  | predictor     |  cycles | lsq replays | vs none %"

let mdp_row (cells : mdp_cell list) (c : mdp_cell) =
  Printf.sprintf "%-9s | %-13s | %7d | %11d | %+8.1f"
    c.md_wname (mdp_name c.md_policy) c.md_cycles c.md_replays
    (mdp_overhead cells c)

(* ------------------------------------------------------------------ *)
(* Ablations (§6 of DESIGN.md)                                          *)
(* ------------------------------------------------------------------ *)

(** Fig. 10's profile variant of [prog] on the in-order core.  The
    control-speculation, alias-threshold and ALAT-capacity ablations each
    vary one knob of it: the SSAPRE [config] or the [machine]. *)
let run_profile_variant ?config ?(machine = !machine_config) profile prog =
  let r =
    Pipeline.optimize ~config ~edge_profile:(Some profile) prog
      (Pipeline.Spec_profile profile)
  in
  Machine.run ~config:machine (lower_scheduled r.Pipeline.prog)

(** Control-speculation ablation: speculative PRE with and without
    insertion at non-downsafe Phis. *)
let ablate_control_spec ?(quick = false) (w : Workloads.workload) =
  let train_prog = Lower.compile (Workloads.train_source w) in
  let profile, _ = Profiler.profile train_prog in
  let params = if quick then w.Workloads.train else w.Workloads.ref_ in
  let run ~control_spec =
    let config =
      { (Spec_ssapre.Ssapre.default_config Spec_spec.Flags.Nonspec) with
        Spec_ssapre.Ssapre.control_spec }
    in
    run_profile_variant ~config profile
      (Lower.compile (w.Workloads.source params))
  in
  let with_cs = run ~control_spec:true in
  let without_cs = run ~control_spec:false in
  (w.Workloads.name,
   Machine.loads_retired with_cs.Machine.perf,
   Machine.loads_retired without_cs.Machine.perf,
   with_cs.Machine.perf.Machine.cycles,
   without_cs.Machine.perf.Machine.cycles)

(** Degree-of-likeliness threshold ablation (§3.1's "the compiler can use
    the profiling information ... to specify the degree of likeliness").

    A synthetic kernel whose store truly aliases the hot load in a small
    fraction of executions, on the training input as well.  With the
    default threshold (0 = "any observed alias is likely") the profile
    blocks speculation; raising the threshold trades a small
    mis-speculation rate for the load reduction.  Returns
    (threshold, loads, checks, misses, cycles) rows. *)
let ablate_threshold ?(alias_permille = 30) thresholds =
  let src =
    Printf.sprintf
      "int g; int decoy;        int main(){ int s; s = 0; g = 1; int* w; w = &decoy;        for (int i = 0; i < 4000; i++) {          if (rnd(1000) < %d) w = &g; else w = &decoy;          s = s + g; *w = i; s = s + g; }        print_int(s); print_int(g); return 0; }"
      alias_permille
  in
  let profile = Pipeline.profile_of_source src in
  List.map
    (fun threshold ->
      let config =
        { (Spec_ssapre.Ssapre.default_config Spec_spec.Flags.Nonspec) with
          Spec_ssapre.Ssapre.alias_threshold = threshold }
      in
      let m = run_profile_variant ~config profile (Lower.compile src) in
      let p = m.Machine.perf in
      (threshold, Machine.loads_retired p, p.Machine.checks,
       p.Machine.check_misses, p.Machine.cycles))
    thresholds

(** Local-scheduling ablation: cycles with and without the ITL list
    scheduler, on the profile-speculative build. *)
let ablate_schedule ?(quick = false) (w : Workloads.workload) =
  let train_prog = Lower.compile (Workloads.train_source w) in
  let profile, _ = Profiler.profile train_prog in
  let params = if quick then w.Workloads.train else w.Workloads.ref_ in
  let plain =
    let prog = Lower.compile (w.Workloads.source params) in
    let r =
      Pipeline.optimize ~edge_profile:(Some profile) prog
        (Pipeline.Spec_profile profile)
    in
    Machine.run ~config:!machine_config
      (Spec_codegen.Codegen.lower r.Pipeline.prog)
  in
  let sched =
    run_profile_variant profile (Lower.compile (w.Workloads.source params))
  in
  if plain.Machine.output <> sched.Machine.output then
    failwith ("scheduling changed behaviour on " ^ w.Workloads.name);
  (w.Workloads.name, plain.Machine.perf.Machine.cycles,
   sched.Machine.perf.Machine.cycles)

(* ------------------------------------------------------------------ *)
(* Misspeculation stress sweep (DESIGN.md §3.3)                        *)
(* ------------------------------------------------------------------ *)

(** One point of the misspeculation grid: a label and a fault plan. *)
type stress_point = {
  sp_label : string;
  sp_plan : Spec_stress.Faults.plan;
}

(** The default grid: no faults (must reproduce the baseline numbers
    bit-for-bit), per-cycle chaos invalidation at 1%/10%/50%, a full
    flush every 64 cycles (context-switch pressure), a 4-entry ALAT
    (capacity pressure, machine only), and an adversarially inverted
    profile — alone and combined with 10% chaos. *)
let stress_grid ~seed () =
  let p = Spec_stress.Faults.null seed in
  [ { sp_label = "0%"; sp_plan = p };
    { sp_label = "inv-1%";
      sp_plan = { p with Spec_stress.Faults.inv_ppm = 10_000 } };
    { sp_label = "inv-10%";
      sp_plan = { p with Spec_stress.Faults.inv_ppm = 100_000 } };
    { sp_label = "inv-50%";
      sp_plan = { p with Spec_stress.Faults.inv_ppm = 500_000 } };
    { sp_label = "flush-64";
      sp_plan = { p with Spec_stress.Faults.flush_period = 64 } };
    { sp_label = "alat-4";
      sp_plan = { p with Spec_stress.Faults.alat_entries = Some 4 } };
    { sp_label = "adv-invert";
      sp_plan = { p with Spec_stress.Faults.adversary =
                           Spec_stress.Faults.Adv_invert } };
    { sp_label = "adv+inv-10%";
      sp_plan = { p with Spec_stress.Faults.adversary =
                           Spec_stress.Faults.Adv_invert;
                         Spec_stress.Faults.inv_ppm = 100_000 } } ]

(** One (workload, point, variant) measurement: the machine and the vm
    ran to completion with outputs bit-identical to the unoptimized
    oracle. *)
type stress_cell = {
  sc_workload : string;
  sc_backend : string;  (** machine backend name ("inorder"/"ooo") *)
  sc_point : string;
  sc_variant : string;
  sc_adv_flips : int;   (** speculation flags the adversary corrupted *)
  sc_checks : int;      (** machine ld.c executed *)
  sc_misses : int;      (** machine ld.c whose entry was gone: reloads *)
  sc_cycles : int;
  sc_insns : int;
  sc_m_flushes : int;   (** injected full flushes, machine ALAT *)
  sc_m_invs : int;      (** injected chaos invalidations, machine ALAT *)
  sc_i_checks : int;    (** vm check statements executed *)
  sc_i_reloads : int;   (** vm check reloads *)
  sc_i_flushes : int;   (** injected full flushes, semantic ALAT *)
  sc_i_invs : int;      (** injected chaos invalidations, semantic ALAT *)
}

(** Check-load hit rate of a cell on the machine, in percent. *)
let stress_hit_rate (c : stress_cell) =
  if c.sc_checks = 0 then 100.
  else pct (1. -. float_of_int c.sc_misses /. float_of_int c.sc_checks)

exception Stress_divergence of string

let stress_diverged ~workload ~variant ~point ~engine =
  raise
    (Stress_divergence
       (Printf.sprintf
          "stress %s/%s@%s: %s output diverged from the unoptimized oracle"
          workload variant point engine))

(* Run every grid point of one (workload, variant) pair.  The program is
   compiled once per distinct adversary (runtime-only fault points share
   the honest compile) and re-run with a fresh, scope-derived injector
   per point and engine, so results do not depend on point order or on
   which pool worker executes the task. *)
let stress_variant ~quick ~seed ~oracle ~backend (w : Workloads.workload)
    profile points (vname, variant) : stress_cell list =
  let params = if quick then w.Workloads.train else w.Workloads.ref_ in
  let compile_for adv =
    let prog = Lower.compile (w.Workloads.source params) in
    let perturb =
      Spec_spec.Flags.perturbation ~seed ~scope:[ w.Workloads.name; vname ]
        adv
    in
    let r = Pipeline.optimize ~edge_profile:(Some profile) ?perturb prog variant in
    let flips =
      match perturb with Some p -> Spec_spec.Flags.flipped p | None -> 0
    in
    (Machine.resolve (lower_scheduled r.Pipeline.prog),
     Vmcode.compile r.Pipeline.prog, flips)
  in
  let adversaries =
    List.sort_uniq compare
      (List.map (fun pt -> pt.sp_plan.Spec_stress.Faults.adversary) points)
  in
  let compiled = List.map (fun adv -> (adv, compile_for adv)) adversaries in
  (* the Aggressive variant has no checks, so it cannot recover from a
     wrong profile: adversarial points are skipped for it, and under
     runtime interference it is held to its own fault-free output (it
     legitimately diverges from the oracle on kernels with real
     aliasing, as in the main harness's correctness gate) *)
  let aggressive = variant = Pipeline.Aggressive in
  List.concat_map
    (fun pt ->
      let plan = pt.sp_plan in
      if aggressive
         && plan.Spec_stress.Faults.adversary <> Spec_stress.Faults.Adv_none
      then []
      else begin
        let rp, vprog, flips =
          match List.assoc plan.Spec_stress.Faults.adversary compiled with
          | c -> c
        in
        let scope tail =
          [ w.Workloads.name; vname; pt.sp_label; tail ]
        in
        (* the in-order core keeps the historical "machine" scope so its
           fault streams (and hence the committed stress baselines) are
           unchanged; other backends get their own streams *)
        let machine_scope =
          match backend with
          | Machine.Inorder -> "machine"
          | b -> "machine-" ^ Machine.backend_name b
        in
        let mf =
          Spec_stress.Faults.injector_opt plan ~scope:(scope machine_scope)
        in
        let cfg =
          match plan.Spec_stress.Faults.alat_entries with
          | Some n -> { !machine_config with Machine.alat_entries = n }
          | None -> !machine_config
        in
        let m = Machine.run_resolved_on backend ~config:cfg ?faults:mf rp in
        if m.Machine.output <> oracle then
          stress_diverged ~workload:w.Workloads.name ~variant:vname
            ~point:pt.sp_label ~engine:"machine";
        (* the vm keeps the historical "interp" scope, so its fault
           streams (and hence the stress cells) are unchanged *)
        let fi =
          Spec_stress.Faults.injector_opt plan ~scope:(scope "interp")
        in
        let i = Vm.run_program ?faults:fi vprog in
        if i.Interp.output <> oracle then
          stress_diverged ~workload:w.Workloads.name ~variant:vname
            ~point:pt.sp_label ~engine:"vm";
        let p = m.Machine.perf in
        let ic = i.Interp.counters in
        let injected f = function None -> 0 | Some inj -> f inj in
        [ { sc_workload = w.Workloads.name;
            sc_backend = Machine.backend_name backend;
            sc_point = pt.sp_label;
            sc_variant = vname;
            sc_adv_flips = flips;
            sc_checks = p.Machine.checks;
            sc_misses = p.Machine.check_misses;
            sc_cycles = p.Machine.cycles;
            sc_insns = p.Machine.insns;
            sc_m_flushes = injected Spec_stress.Faults.flushes mf;
            sc_m_invs = injected Spec_stress.Faults.invalidations mf;
            sc_i_checks = ic.Interp.check_stmts;
            sc_i_reloads = ic.Interp.check_reloads;
            sc_i_flushes = injected Spec_stress.Faults.flushes fi;
            sc_i_invs = injected Spec_stress.Faults.invalidations fi } ]
      end)
    points

(** Stress-sweep one workload: every variant × grid point, outputs
    asserted bit-identical to the unoptimized oracle at every point
    (raises {!Stress_divergence} otherwise).  Variants fan out on the
    domain pool; the grid runs inside each variant task with
    scope-derived fault streams, so cell order and content are
    independent of [--jobs]. *)
let stress_workload ?(quick = false) ?(seed = 1) ?points
    ?(backend = Machine.Inorder) (w : Workloads.workload) : stress_cell list =
  let points = match points with Some p -> p | None -> stress_grid ~seed () in
  let train_prog = Lower.compile (Workloads.train_source w) in
  let profile, _ = Profiler.profile train_prog in
  let params = if quick then w.Workloads.train else w.Workloads.ref_ in
  let oracle_run () =
    let prog = Lower.compile (w.Workloads.source params) in
    let r = Pipeline.optimize ~edge_profile:(Some profile) prog Pipeline.Noopt in
    Machine.run_on backend ~config:!machine_config
      (lower_scheduled r.Pipeline.prog)
  in
  let oracle = (oracle_run ()).Machine.output in
  let variants =
    [ ("base", Pipeline.Base);
      ("profile", Pipeline.Spec_profile profile);
      ("heuristic", Pipeline.Spec_heuristic);
      ("aggressive", Pipeline.Aggressive) ]
  in
  let tasks =
    List.map
      (fun v () ->
        match v with
        | ("aggressive", variant) ->
          (* self-oracle: run the fault-free point once to learn the
             variant's own reference output, then sweep against it *)
          let prog = Lower.compile (w.Workloads.source params) in
          let r =
            Pipeline.optimize ~edge_profile:(Some profile) prog variant
          in
          let self =
            (Machine.run_on backend ~config:!machine_config
               (lower_scheduled r.Pipeline.prog)).Machine.output
          in
          stress_variant ~quick ~seed ~oracle:self ~backend w profile points
            ("aggressive", variant)
        | v -> stress_variant ~quick ~seed ~oracle ~backend w profile points v)
      variants
  in
  List.concat (Parpool.parmap (fun f -> f ()) tasks)

(** Stress-sweep a list of workloads (deterministic under any
    [--jobs N]); cells are grouped by workload in input order. *)
let run_stress ?(quick = false) ?(seed = 1) ?points
    ?(backend = Machine.Inorder) (ws : Workloads.workload list) :
    stress_cell list =
  List.concat
    (Parpool.parmap
       (fun w -> stress_workload ~quick ~seed ?points ~backend w)
       ws)

(** Cycle overhead of a cell versus the same (workload, variant) at the
    zero-fault point, in percent; 0 when the baseline cell is absent. *)
let stress_overhead (cells : stress_cell list) (c : stress_cell) =
  match
    List.find_opt
      (fun b ->
        b.sc_workload = c.sc_workload && b.sc_backend = c.sc_backend
        && b.sc_variant = c.sc_variant && b.sc_point = "0%")
      cells
  with
  | Some b when b.sc_cycles > 0 ->
    pct (float_of_int c.sc_cycles /. float_of_int b.sc_cycles -. 1.)
  | _ -> 0.

let stress_header =
  "workload  | point       | variant    | checks | misses |  hit% | reloads |  cycles |  ovh% | inj m(f/i) | inj i(f/i)"

let stress_row (cells : stress_cell list) (c : stress_cell) =
  Printf.sprintf
    "%-9s | %-11s | %-10s | %6d | %6d | %5.1f | %7d | %7d | %5.1f | %4d/%-5d | %4d/%-5d"
    c.sc_workload c.sc_point c.sc_variant c.sc_checks c.sc_misses
    (stress_hit_rate c) c.sc_i_reloads c.sc_cycles
    (stress_overhead cells c) c.sc_m_flushes c.sc_m_invs c.sc_i_flushes
    c.sc_i_invs

(* ------------------------------------------------------------------ *)
(* Persistent FDO: warm-vs-cold compile bench (DESIGN.md §3.4)          *)
(* ------------------------------------------------------------------ *)

(** One workload's warm-vs-cold comparison: the same profile-fed compile
    run twice against a fresh compile cache.  The cold run populates the
    cache; the warm run must hit, run zero passes, and reproduce the
    cold program exactly. *)
type fdo_result = {
  f_wname : string;
  f_cold_s : float;        (** cold compile wall time (miss + store) *)
  f_warm_s : float;        (** warm compile wall time (hit) *)
  f_hits : int;
  f_misses : int;
  f_stores : int;
  f_evictions : int;
  f_cold_passes : int;     (** pass runs in the cold compile's report *)
  f_warm_passes : int;     (** pass runs in the warm report — must be 0 *)
  f_warm_hit : bool;       (** the warm compile came out of the cache *)
  f_identical : bool;      (** warm program prints identically to cold *)
  f_match_rate : float;    (** store self-match rate — must be 1.0 *)
}

let rm_rf_cache dir =
  (match Sys.readdir dir with
   | files ->
     Array.iter
       (fun f ->
         try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       files
   | exception Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(** Warm-vs-cold compile of one workload through the persistent-FDO
    path: train once, persist the profile through the {!Spec_fdo.Store}
    round-trip (as [speccc --profile-out]/[--profile-in] would), then
    compile the ref source twice against a fresh cache. *)
let run_fdo ?(quick = false) (w : Workloads.workload) : fdo_result =
  let train_prog = Lower.compile (Workloads.train_source w) in
  let profile0, _ = Profiler.profile train_prog in
  let store = Spec_fdo.Store.of_profile train_prog profile0 in
  let profile, mr = Spec_fdo.Store.bind store train_prog in
  let digest = Spec_fdo.Store.digest store in
  let params = if quick then w.Workloads.train else w.Workloads.ref_ in
  let src = w.Workloads.source params in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "speccc-fdo-%d-%s" (Unix.getpid ()) w.Workloads.name)
  in
  rm_rf_cache dir;
  let cache = Spec_fdo.Cache.create dir in
  let compile () =
    let t0 = Unix.gettimeofday () in
    let r =
      Pipeline.compile_and_optimize ~edge_profile:(Some profile) ~cache
        ~profile_digest:digest src (Pipeline.Spec_profile profile)
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let cold, cold_s = compile () in
  let warm, warm_s = compile () in
  rm_rf_cache dir;
  let st = Spec_fdo.Cache.stats cache in
  { f_wname = w.Workloads.name;
    f_cold_s = cold_s;
    f_warm_s = warm_s;
    f_hits = st.Spec_fdo.Cache.hits;
    f_misses = st.Spec_fdo.Cache.misses;
    f_stores = st.Spec_fdo.Cache.stores;
    f_evictions = st.Spec_fdo.Cache.evictions;
    f_cold_passes = Passes.total_runs cold.Pipeline.report;
    f_warm_passes = Passes.total_runs warm.Pipeline.report;
    f_warm_hit = warm.Pipeline.from_cache;
    f_identical =
      Pp.prog_to_string warm.Pipeline.prog
      = Pp.prog_to_string cold.Pipeline.prog;
    f_match_rate = Spec_fdo.Store.match_rate mr }

(** Warm-vs-cold sweep on the domain pool; results in input order. *)
let run_fdos ?(quick = false) (ws : Workloads.workload list) :
    fdo_result list =
  Parpool.parmap (fun w -> run_fdo ~quick w) ws

let fdo_header =
  "benchmark |  cold ms |  warm ms | speedup | hit | passes c/w | identical | match%"

let fdo_row (f : fdo_result) =
  Printf.sprintf "%-9s | %8.2f | %8.2f | %6.1fx | %3s | %6d/%-3d | %9s | %5.1f"
    f.f_wname (1000. *. f.f_cold_s) (1000. *. f.f_warm_s)
    (if f.f_warm_s > 0. then f.f_cold_s /. f.f_warm_s else 0.)
    (if f.f_warm_hit then "yes" else "NO")
    f.f_cold_passes f.f_warm_passes
    (if f.f_identical then "yes" else "NO")
    (100. *. f.f_match_rate)

(* ------------------------------------------------------------------ *)
(* Many-function compile units                                         *)
(* ------------------------------------------------------------------ *)

(* A compile unit: [copies] renamed copies of a kernel's source
   concatenated into one translation unit, plus a driver [main] invoking
   each copy.  Per-function parallelism needs many functions to chew on,
   and the workload kernels have only a handful each — so [perf/]'s
   build workload and the tests scale them the way a real translation
   unit grows: more functions, not bigger ones.  Renaming is plain
   alpha-renaming of the kernel's top-level names (functions and
   globals), discovered from a probe compile; builtins are untouched. *)
let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

let rename_idents names suffix src =
  let n = String.length src in
  let buf = Buffer.create (n + 256) in
  let i = ref 0 in
  while !i < n do
    if is_ident_char src.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do incr j done;
      let tok = String.sub src !i (!j - !i) in
      Buffer.add_string buf tok;
      if List.mem tok names then Buffer.add_string buf suffix;
      i := !j
    end
    else begin
      Buffer.add_char buf src.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let compile_unit ~copies src =
  let probe = Lower.compile src in
  let names =
    let globals = ref [] in
    Symtab.iter
      (fun v ->
        if v.Symtab.vstorage = Symtab.Sglobal then
          globals := v.Symtab.vname :: !globals)
      probe.Sir.syms;
    probe.Sir.func_order @ !globals
  in
  let buf = Buffer.create (copies * (String.length src + 64)) in
  for k = 0 to copies - 1 do
    Buffer.add_string buf (rename_idents names (Printf.sprintf "_%d" k) src);
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf "int main() {\n";
  for k = 0 to copies - 1 do
    Printf.bprintf buf "  main_%d();\n" k
  done;
  Buffer.add_string buf "  return 0;\n}\n";
  Buffer.contents buf

(** ALAT capacity ablation: mis-speculation ratio vs table size. *)
let ablate_alat ?(quick = false) (w : Workloads.workload) sizes =
  let train_prog = Lower.compile (Workloads.train_source w) in
  let profile, _ = Profiler.profile train_prog in
  let params = if quick then w.Workloads.train else w.Workloads.ref_ in
  List.map
    (fun entries ->
      let m =
        run_profile_variant
          ~machine:{ !machine_config with Machine.alat_entries = entries }
          profile (Lower.compile (w.Workloads.source params))
      in
      let p = m.Machine.perf in
      (entries, p.Machine.checks, p.Machine.check_misses))
    sizes

(* ------------------------------------------------------------------ *)
(* Speculative-safety sweep (--table safety)                           *)
(* ------------------------------------------------------------------ *)

exception Safety_divergence of string

(** One (workload, variant) row of the safety sweep: the speculative-taint
    checker's verdict on the deopt-capable optimized program, the stable
    site keys it reported, and the cost of the two recovery policies under
    one forced interference plan — the same build re-run with check misses
    recovered by reloading vs by deoptimizing into the unoptimized body.
    Both legs run on the vm with scope-derived fault streams, and every
    run must reproduce the unoptimized oracle's output byte-for-byte. *)
type safety_cell = {
  sf_wname : string;
  sf_variant : string;
  sf_verdict : string;      (** "unannotated" | "safe" | "leaks" *)
  sf_confirmed : int;
  sf_plausible : int;
  sf_sites : string list;   (** tier + kind + stable site key, program order *)
  sf_checks : int;          (** ld.c executions on the reload leg *)
  sf_reloads : int;         (** check misses recovered by reloading *)
  sf_reload_steps : int;    (** vm steps, reload recovery *)
  sf_deopts : int;          (** check misses recovered by deoptimizing *)
  sf_deopt_steps : int;     (** vm steps, deopt recovery *)
}

(* the interference plan the recovery comparison runs under: periodic
   full ALAT flushes, frequent enough to fire on every kernel with
   checks, seeded so the stream is reproducible per scope *)
let safety_fault_plan ~seed =
  { (Spec_stress.Faults.null seed) with Spec_stress.Faults.flush_period = 25 }

let safety_diverged ~workload ~variant ~leg msg =
  raise
    (Safety_divergence
       (Printf.sprintf "safety %s/%s (%s): %s" workload variant leg msg))

let safety_variant ~quick ~seed (w : Workloads.workload) profile
    (vname, variant) : safety_cell =
  let params = if quick then w.Workloads.train else w.Workloads.ref_ in
  let src = w.Workloads.source params in
  let prog = Lower.compile src in
  let r =
    Pipeline.optimize ~edge_profile:(Some profile) ~deopt:true ~safety:true
      prog variant
  in
  let report =
    match r.Pipeline.safety with
    | Some rep -> rep
    | None -> failwith "safety sweep: pipeline dropped the safety report"
  in
  let verdict, confirmed, plausible = Spec_safety.Spectct.cells report in
  let dplan = Spec_safety.Deopt.make_plan (Lower.compile src) in
  (* the Aggressive variant has no runtime checks, so on kernels with
     real aliasing it legitimately diverges from the unoptimized oracle
     (as in the main harness); it is held to its own fault-free output
     instead — faults only ever remove ALAT entries, so a faulted run
     must still reproduce it exactly *)
  let vprog = Lazy.force r.Pipeline.vm in
  let expected =
    if variant = Pipeline.Aggressive then (Vm.run_program vprog).Interp.output
    else (Interp_ref.run (Lower.compile src)).Interp_ref.output
  in
  let plan = safety_fault_plan ~seed in
  let inj leg =
    Spec_stress.Faults.injector plan
      ~scope:[ w.Workloads.name; vname; "safety"; leg ]
  in
  let check leg (i : Interp.result) =
    if i.Interp.output <> expected then
      safety_diverged ~workload:w.Workloads.name ~variant:vname ~leg
        "output diverged from the unoptimized oracle"
  in
  let reload = Vm.run_program ~faults:(inj "reload") vprog in
  check "reload" reload;
  let deo = Vm.run_program ~faults:(inj "deopt") ~recover:dplan vprog in
  check "deopt" deo;
  { sf_wname = w.Workloads.name;
    sf_variant = vname;
    sf_verdict = verdict;
    sf_confirmed = confirmed;
    sf_plausible = plausible;
    sf_sites = Spec_safety.Spectct.site_lines report;
    sf_checks = reload.Interp.counters.Interp.check_stmts;
    sf_reloads = reload.Interp.counters.Interp.check_reloads;
    sf_reload_steps = reload.Interp.counters.Interp.steps;
    sf_deopts = deo.Interp.counters.Interp.deopts;
    sf_deopt_steps = deo.Interp.counters.Interp.steps }

let safety_variants =
  [ "profile", `Profile; "heuristic", `Heuristic; "aggressive", `Aggressive ]

(** Safety-sweep one workload: checker verdict + recovery-cost cells for
    each speculative variant.  The profile is collected inside the task so
    cells are self-contained (deterministic under any [--jobs]). *)
let safety_workload ?(quick = false) ?(seed = 1) (w : Workloads.workload) :
    safety_cell list =
  let train_prog = Lower.compile (Workloads.train_source w) in
  let profile, _ = Profiler.profile train_prog in
  List.map
    (fun (vname, v) ->
      let variant =
        match v with
        | `Profile -> Pipeline.Spec_profile profile
        | `Heuristic -> Pipeline.Spec_heuristic
        | `Aggressive -> Pipeline.Aggressive
      in
      safety_variant ~quick ~seed w profile (vname, variant))
    safety_variants

(** The full safety sweep, one workload per pool task. *)
let run_safety ?(quick = false) ?(seed = 1) (ws : Workloads.workload list) :
    safety_cell list =
  List.concat (Parpool.parmap (fun w -> safety_workload ~quick ~seed w) ws)

let safety_header =
  "benchmark | variant    | verdict     | conf | plaus | checks | reloads | \
   steps(rel) | deopts | steps(deo)"

let safety_row (c : safety_cell) =
  Printf.sprintf
    "%-9s | %-10s | %-11s | %4d | %5d | %6d | %7d | %10d | %6d | %10d"
    c.sf_wname c.sf_variant c.sf_verdict c.sf_confirmed c.sf_plausible
    c.sf_checks c.sf_reloads c.sf_reload_steps c.sf_deopts c.sf_deopt_steps

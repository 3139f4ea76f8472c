(** Experiment harness: regenerates every table and figure of the paper's
    evaluation (§5) on the workload kernels.

    Methodology, as in the paper: profiles (edge + alias) are collected on
    each kernel's *train* input; every pipeline variant is compiled with
    that profile and measured on the *ref* input on the ITL machine
    simulator.  Each kernel is profiled and each variant compiled once,
    in the kernel's {!build}; every table, sweep and ablation runs what
    it varies on that build.  All variants must produce the reference
    output, and the vm must reproduce the machine's output on every
    variant — the harness asserts both, so every experiment run doubles
    as an end-to-end correctness check of speculation and recovery.  The
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

(** One variant of a build: the optimized program, lowered,
    list-scheduled and resolved for the machine, its vm bytecode, and
    what the vm printed running it. *)
type compiled = {
  c_variant : Pipeline.variant;
  c_prog : Sir.prog;
  c_rprog : Machine.rprog;
  c_vprog : Vmcode.program;
  c_output : string;
  c_stats : Spec_ssapre.Ssapre.stats;
  c_report : Passes.report;
}

(** A workload's build: its train input lowered and profiled once, and
    the measured input compiled once per variant against that profile.
    Every table, sweep and ablation runs what it varies on the build. *)
type build = {
  workload : Workloads.workload;
  src : string;  (** the measured input's source *)
  train_prog : Sir.prog;  (** the lowering the profile's sites key to *)
  profile : Profile.t;
  v_noopt : compiled;
  v_base : compiled;
  v_profile : compiled;
  v_heuristic : compiled;
  v_aggressive : compiled;
  reuse_frac : float;  (** simulation-based potential load reuse (Fig 12a) *)
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
  build : build;  (** what the variants ran *)
}

(** Lower an optimized program to ITL and list-schedule it, as every
    table does: the paper's O3 baseline (ORC) schedules everything. *)
let lower_scheduled prog =
  let mp = Spec_codegen.Codegen.lower prog in
  ignore (Spec_codegen.Schedule.run mp : Spec_codegen.Schedule.stats);
  mp

(** Build [w]: train and profile it ({!Pipeline.train}), then compile
    the ref input (the train input when [quick]) once per variant
    against that profile, lower and schedule it ({!lower_scheduled}),
    and run its bytecode on the vm once.  The five compiles fan out to
    the domain pool.  Each forces its own bytecode, so a build holds
    plain values only and tasks of other sweeps may read it. *)
let prepare ?(quick = false) (w : Workloads.workload) : build =
  let train_prog, profile, _ = Pipeline.train (Workloads.train_source w) in
  let src =
    w.Workloads.source (if quick then w.Workloads.train else w.Workloads.ref_)
  in
  let compile v =
    let r =
      Pipeline.optimize ~edge_profile:(Some profile) (Lower.compile src) v
    in
    let vprog = Lazy.force r.Pipeline.vm in
    { c_variant = v; c_prog = r.Pipeline.prog;
      c_rprog = Machine.resolve (lower_scheduled r.Pipeline.prog);
      c_vprog = vprog; c_output = (Vm.run_program vprog).Interp.output;
      c_stats = r.Pipeline.stats; c_report = r.Pipeline.report }
  in
  match
    Parpool.parmap compile
      [ Pipeline.Noopt; Pipeline.Base; Pipeline.Spec_profile profile;
        Pipeline.Spec_heuristic; Pipeline.Aggressive ]
  with
  | [ v_noopt; v_base; v_profile; v_heuristic; v_aggressive ] ->
    let lr, _ = Load_reuse.analyse v_base.c_prog in
    { workload = w; src; train_prog; profile; v_noopt; v_base; v_profile;
      v_heuristic; v_aggressive; reuse_frac = Load_reuse.reuse_fraction lr }
  | _ -> assert false

(** The five variants of [b], in the order of {!bench_result}'s runs. *)
let variants b =
  [ b.v_noopt; b.v_base; b.v_profile; b.v_heuristic; b.v_aggressive ]

(** Run a build's variants on the machine backend [backend] (default:
    the in-order EPIC core).  Each must print what the vm printed on the
    same build — a vm/machine divergence fails the measurement rather
    than skewing a table. *)
let measure ?(backend = Machine.Inorder) (b : build) : bench_result =
  let w = b.workload in
  let run c =
    let m = Machine.run_resolved_on backend c.c_rprog in
    if m.Machine.output <> c.c_output then
      failwith
        (Printf.sprintf "experiment %s/%s: vm output diverged from the machine"
           w.Workloads.name
           (Pipeline.variant_name c.c_variant));
    { r_machine = m; r_stats = c.c_stats; r_report = c.c_report }
  in
  let cs = variants b in
  let runs = List.combine cs (Parpool.parmap run cs) in
  let run_of c = List.assq c runs in
  let noopt = run_of b.v_noopt in
  (* correctness gate: every variant reproduces the unoptimized output.
     The aggressive upper bound is only correct when no aliasing
     actually occurs; kernels with real aliasing legitimately diverge
     there *)
  List.iter
    (fun c ->
      if (run_of c).r_machine.Machine.output <> noopt.r_machine.Machine.output
      then
        failwith
          (Printf.sprintf "experiment %s: variant %s diverged"
             w.Workloads.name (Pipeline.variant_name c.c_variant)))
    [ b.v_base; b.v_profile; b.v_heuristic ];
  { wname = w.Workloads.name; backend; fp = w.Workloads.fp; noopt;
    base = run_of b.v_base; prof_spec = run_of b.v_profile;
    heur_spec = run_of b.v_heuristic; aggressive = run_of b.v_aggressive;
    build = b }

let run_workload ?quick ?backend w = measure ?backend (prepare ?quick w)

(** Run a sweep of workloads on the domain pool; results are in input
    order, so output is independent of [--jobs].  Each build's variant
    fan-out nests inside this one — [Parpool.await] helps with queued
    tasks, so the nesting cannot deadlock. *)
let run_workloads ?quick ws = Parpool.parmap (fun w -> run_workload ?quick w) ws

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
    (pct b.build.reuse_frac)
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

(** Sweep one resolved program across the memory-dependence
    predictors: every policy runs it on the OoO core and must reproduce
    the same output and instruction count (prediction is a timing-only
    concern — a difference is a simulator bug and fails the sweep). *)
let mdp_cells_of ~name (rp : Machine.rprog) : mdp_cell list =
  let runs =
    List.map
      (fun policy ->
        let config = { Machine.default_config with Machine.mdp = policy } in
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

(* The workload kernels never replay — their store addresses resolve
   inside the OoO window before any conflicting load issues — so an
   adversarial rider differentiates the predictors: the store address
   takes a division chain to resolve, the next load issues eagerly
   underneath it, and every fifth iteration they collide. *)
let mdp_chain ?(quick = false) () : mdp_cell list =
  let src =
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
      (if quick then 300 else 2000)
  in
  let r = Pipeline.optimize (Lower.compile src) Pipeline.Base in
  mdp_cells_of ~name:"chain"
    (Machine.resolve (lower_scheduled r.Pipeline.prog))

(** Sweep each build's *base* (non-speculative) variant × predictor on
    the domain pool; cells are grouped by workload in input order
    (deterministic in [--jobs]).  Base is the interesting build: its
    loads still sit below stores in program order, so the OoO core's
    eager issue is what discovers the conflicts (on the speculative
    builds the compiler has already replaced those loads with checks and
    the LSQ sees nothing — the compile-time/hardware overlap §3.6
    documents). *)
let run_mdp_sweep (bs : build list) : mdp_cell list =
  List.concat
    (Parpool.parmap
       (fun b ->
         mdp_cells_of ~name:b.workload.Workloads.name b.v_base.c_rprog)
       bs)

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

(** Control-speculation ablation: speculative PRE with and without
    insertion at non-downsafe Phis.  The "on" leg is Fig. 10's profile
    variant as measured in [b]; the "off" leg compiles it again with
    control speculation off. *)
let ablate_control_spec (b : bench_result) =
  let config =
    { (Spec_ssapre.Ssapre.default_config Spec_spec.Flags.Nonspec) with
      Spec_ssapre.Ssapre.control_spec = false }
  in
  let { profile; src; _ } = b.build in
  let r =
    Pipeline.optimize ~config:(Some config) ~edge_profile:(Some profile)
      (Lower.compile src) (Pipeline.Spec_profile profile)
  in
  let without_cs = Machine.run (lower_scheduled r.Pipeline.prog) in
  let with_cs = b.prof_spec.r_machine in
  (b.wname,
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
      let r =
        Pipeline.optimize ~config:(Some config) ~edge_profile:(Some profile)
          (Lower.compile src) (Pipeline.Spec_profile profile)
      in
      let p = (Machine.run (lower_scheduled r.Pipeline.prog)).Machine.perf in
      (threshold, Machine.loads_retired p, p.Machine.checks,
       p.Machine.check_misses, p.Machine.cycles))
    thresholds

(** Local-scheduling ablation: cycles with and without the ITL list
    scheduler, on the profile-speculative build.  The scheduled leg is
    the one measured in [b]. *)
let ablate_schedule (b : bench_result) =
  let plain =
    Machine.run (Spec_codegen.Codegen.lower b.build.v_profile.c_prog)
  in
  let sched = b.prof_spec.r_machine in
  if plain.Machine.output <> sched.Machine.output then
    failwith ("scheduling changed behaviour on " ^ b.wname);
  (b.wname, plain.Machine.perf.Machine.cycles,
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

(* Run every grid point of one variant of a build.  Runtime-only fault
   points re-run the build's own program; each distinct adversary is
   compiled once.  Every point and engine gets a fresh, scope-derived
   injector, so results do not depend on point order or on which pool
   worker executes the task. *)
let stress_variant ~seed ~oracle ~backend (b : build) points (c : compiled) :
    stress_cell list =
  let wname = b.workload.Workloads.name in
  let vname = Pipeline.variant_name c.c_variant in
  (* the Aggressive variant has no checks, so it cannot recover from a
     wrong profile: adversarial points are skipped for it, and under
     runtime interference it is held to its own fault-free output (it
     legitimately diverges from the oracle on kernels with real
     aliasing, as in the main harness's correctness gate) *)
  let oracle, points =
    match c.c_variant with
    | Pipeline.Aggressive ->
      ( c.c_output,
        List.filter
          (fun pt ->
            pt.sp_plan.Spec_stress.Faults.adversary
            = Spec_stress.Faults.Adv_none)
          points )
    | _ -> (oracle, points)
  in
  let compile_for adv =
    match Spec_spec.Flags.perturbation ~seed ~scope:[ wname; vname ] adv with
    | None -> (c.c_rprog, c.c_vprog, 0)
    | Some perturb ->
      let r =
        Pipeline.optimize ~edge_profile:(Some b.profile) ~perturb
          (Lower.compile b.src) c.c_variant
      in
      (Machine.resolve (lower_scheduled r.Pipeline.prog),
       Lazy.force r.Pipeline.vm, Spec_spec.Flags.flipped perturb)
  in
  let compiled =
    List.map
      (fun adv -> (adv, compile_for adv))
      (List.sort_uniq compare
         (List.map (fun pt -> pt.sp_plan.Spec_stress.Faults.adversary) points))
  in
  List.map
    (fun pt ->
      let plan = pt.sp_plan in
      let rp, vprog, flips =
        List.assoc plan.Spec_stress.Faults.adversary compiled
      in
      let scope tail = [ wname; vname; pt.sp_label; tail ] in
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
        | Some n -> { Machine.default_config with Machine.alat_entries = n }
        | None -> Machine.default_config
      in
      let m = Machine.run_resolved_on backend ~config:cfg ?faults:mf rp in
      if m.Machine.output <> oracle then
        stress_diverged ~workload:wname ~variant:vname ~point:pt.sp_label
          ~engine:"machine";
      (* the vm keeps the historical "interp" scope, so its fault
         streams (and hence the stress cells) are unchanged *)
      let fi = Spec_stress.Faults.injector_opt plan ~scope:(scope "interp") in
      let i = Vm.run_program ?faults:fi vprog in
      if i.Interp.output <> oracle then
        stress_diverged ~workload:wname ~variant:vname ~point:pt.sp_label
          ~engine:"vm";
      let p = m.Machine.perf in
      let ic = i.Interp.counters in
      let injected f = function None -> 0 | Some inj -> f inj in
      { sc_workload = wname;
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
        sc_i_invs = injected Spec_stress.Faults.invalidations fi })
    points

(** Stress-sweep one build: every variant but noopt × grid point,
    outputs asserted bit-identical to the unoptimized oracle (the
    build's noopt output) at every point; raises {!Stress_divergence}
    otherwise.  Variants fan out on the domain pool; the grid runs
    inside each variant task with scope-derived fault streams, so cell
    order and content are independent of [--jobs]. *)
let stress_workload ?(seed = 1) ?points ?(backend = Machine.Inorder)
    (b : build) : stress_cell list =
  let points = match points with Some p -> p | None -> stress_grid ~seed () in
  List.concat
    (Parpool.parmap
       (stress_variant ~seed ~oracle:b.v_noopt.c_output ~backend b points)
       [ b.v_base; b.v_profile; b.v_heuristic; b.v_aggressive ])

(** Stress-sweep a list of builds (deterministic under any [--jobs N]);
    cells are grouped by workload in input order. *)
let run_stress ?seed ?backend (bs : build list) : stress_cell list =
  List.concat (Parpool.parmap (fun b -> stress_workload ?seed ?backend b) bs)

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

(** Warm-vs-cold compile of one build through the persistent-FDO path:
    persist its profile through the {!Spec_fdo.Store} round-trip (as
    [speccc --profile-out]/[--profile-in] would), then compile the
    measured source twice against a fresh cache. *)
let run_fdo (b : build) : fdo_result =
  let store = Spec_fdo.Store.of_profile b.train_prog b.profile in
  let profile, mr = Spec_fdo.Store.bind store b.train_prog in
  let digest = Spec_fdo.Store.digest store in
  let wname = b.workload.Workloads.name in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "speccc-fdo-%d-%s" (Unix.getpid ()) wname)
  in
  rm_rf_cache dir;
  let cache = Spec_fdo.Cache.create dir in
  let compile () =
    let t0 = Unix.gettimeofday () in
    let r =
      Pipeline.compile_and_optimize ~edge_profile:(Some profile) ~cache
        ~profile_digest:digest b.src (Pipeline.Spec_profile profile)
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let cold, cold_s = compile () in
  let warm, warm_s = compile () in
  rm_rf_cache dir;
  let st = Spec_fdo.Cache.stats cache in
  { f_wname = wname;
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
let run_fdos (bs : build list) : fdo_result list = Parpool.parmap run_fdo bs

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

(** ALAT capacity ablation: mis-speculation ratio vs table size, on
    the build's profile variant. *)
let ablate_alat (b : build) sizes =
  let rp = b.v_profile.c_rprog in
  List.map
    (fun entries ->
      let config =
        { Machine.default_config with Machine.alat_entries = entries }
      in
      let p = (Machine.run_resolved ~config rp).Machine.perf in
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

let safety_variant ~seed (b : build) variant : safety_cell =
  let wname = b.workload.Workloads.name in
  let vname = Pipeline.variant_name variant in
  let r =
    Pipeline.optimize ~edge_profile:(Some b.profile) ~deopt:true ~safety:true
      (Lower.compile b.src) variant
  in
  let report =
    match r.Pipeline.safety with
    | Some rep -> rep
    | None -> failwith "safety sweep: pipeline dropped the safety report"
  in
  let verdict, confirmed, plausible = Spec_safety.Spectct.cells report in
  let dplan = Spec_safety.Deopt.make_plan (Lower.compile b.src) in
  (* the Aggressive variant has no runtime checks, so on kernels with
     real aliasing it legitimately diverges from the unoptimized oracle
     (as in the main harness); it is held to its own fault-free output
     instead — faults only ever remove ALAT entries, so a faulted run
     must still reproduce it exactly *)
  let vprog = Lazy.force r.Pipeline.vm in
  let expected =
    if variant = Pipeline.Aggressive then (Vm.run_program vprog).Interp.output
    else (Interp_ref.run (Lower.compile b.src)).Interp_ref.output
  in
  let plan = safety_fault_plan ~seed in
  let inj leg =
    Spec_stress.Faults.injector plan
      ~scope:[ wname; vname; "safety"; leg ]
  in
  let check leg (i : Interp.result) =
    if i.Interp.output <> expected then
      raise
        (Safety_divergence
           (Printf.sprintf
              "safety %s/%s (%s): output diverged from the unoptimized oracle"
              wname vname leg))
  in
  let reload = Vm.run_program ~faults:(inj "reload") vprog in
  check "reload" reload;
  let deo = Vm.run_program ~faults:(inj "deopt") ~recover:dplan vprog in
  check "deopt" deo;
  { sf_wname = wname;
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

(** The full safety sweep, one build per pool task: checker verdict +
    recovery-cost cells for each speculative variant, compiled with
    deoptimization support against the build's profile. *)
let run_safety ?(seed = 1) (bs : build list) : safety_cell list =
  List.concat
    (Parpool.parmap
       (fun b ->
         List.map (safety_variant ~seed b)
           [ Pipeline.Spec_profile b.profile; Pipeline.Spec_heuristic;
             Pipeline.Aggressive ])
       bs)

let safety_header =
  "benchmark | variant    | verdict     | conf | plaus | checks | reloads | \
   steps(rel) | deopts | steps(deo)"

let safety_row (c : safety_cell) =
  Printf.sprintf
    "%-9s | %-10s | %-11s | %4d | %5d | %6d | %7d | %10d | %6d | %10d"
    c.sf_wname c.sf_variant c.sf_verdict c.sf_confirmed c.sf_plausible
    c.sf_checks c.sf_reloads c.sf_reload_steps c.sf_deopts c.sf_deopt_steps

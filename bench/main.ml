(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (§5), the ablation studies called out in DESIGN.md,
   and compiler-phase / execution-engine microbenchmarks (Bechamel).

   Usage:
     bench/main.exe                 -- all paper tables on ref inputs
     bench/main.exe --quick         -- train-sized inputs (fast smoke run)
     bench/main.exe --jobs 4       -- fan workloads/variants out to 4 domains
     bench/main.exe --table fig10   -- a single table
     bench/main.exe --micro         -- Bechamel phase + engine benches
     bench/main.exe --stress        -- misspeculation stress sweep (ALAT
                                       fault injection + adversarial
                                       profiles; --stress-seed N picks the
                                       fault streams, default 1)
     bench/main.exe --json          -- bench dump (JSON on stdout, and
                                       written to BENCH_<date>.json;
                                       --json-file PATH overrides the
                                       destination, "-" = stdout only;
                                       combined with --stress the dump
                                       gains a "stress" section)

     bench/main.exe --fdo           -- persistent-FDO warm-vs-cold compile
                                       cache bench (also available as
                                       --table fdo; with --json the dump
                                       gains an "fdo" section)
     bench/main.exe --compile-bench -- compile throughput: cold heuristic
                                       compiles at --jobs 1 vs --jobs N
                                       (N from --jobs, default 4), asserting
                                       byte-identical output; also --table
                                       compile; with --json the dump gains
                                       a "compile" section
     bench/main.exe --backend B     -- core model: inorder (default), ooo,
                                       or both.  "both" runs every selected
                                       table per backend, hard-fails if the
                                       backends disagree on program output
                                       or instruction counts, and adds the
                                       in-order-vs-OoO comparison table (also
                                       --table backends; with --json the
                                       dump gains a "backends" section)
     bench/main.exe --table engines -- engine-throughput sweep (oracle vs
                                       vm; always in the --json dump as
                                       "engines")
     bench/main.exe --table mdp     -- OoO memory-dependence predictor
                                       sweep (store-set, last-violator,
                                       none; "mdp" section in the dump)
     bench/main.exe --table safety  -- speculative-safety sweep: taint
                                       checker verdicts per variant plus
                                       reload-vs-deopt recovery costs
                                       under forced ALAT interference
                                       (always in the --json dump as
                                       "safety")

   Tables: smvp fig10 fig11 fig12 heuristics rse stress fdo compile backends
           engines mdp safety ablate-cspec ablate-alat ablate-threshold
           ablate-sched micro

   Every variant also runs on the vm, which must reproduce the machine's
   output.  Workload results are computed per-(workload, backend) on
   demand and memoized, so `--table smvp` only runs equake on the
   in-order core; table output is deterministic in [--jobs] (see
   Parpool).  An unknown argument or table name exits 2. *)

open Spec_driver

module Machine = Spec_machine.Machine

let quick = ref false
let tables = ref []
let jobs = ref 1
let json = ref false
let json_file = ref None
let stress = ref false
let stress_seed = ref 1
let fdo = ref false
let compile_bench = ref false
let traffic = ref false
let backends : Machine.backend list ref = ref [ Machine.Inorder ]

let both_backends () = List.length !backends > 1

let section title = Printf.printf "\n== %s ==\n%!" title

(* ------------------------------------------------------------------ *)
(* Per-workload memoized results                                       *)
(* ------------------------------------------------------------------ *)

let result_tbl : (string * Machine.backend, Experiments.bench_result)
    Hashtbl.t =
  Hashtbl.create 16

(** Results for [ws] on [backend], computing (in parallel) only those
    not already cached.  Output order follows [ws]. *)
let results_on backend (ws : Spec_workloads.Workloads.workload list) :
    Experiments.bench_result list =
  let key w = (w.Spec_workloads.Workloads.name, backend) in
  let missing =
    List.filter (fun w -> not (Hashtbl.mem result_tbl (key w))) ws
  in
  if missing <> [] then begin
    let computed =
      Experiments.run_workloads ~quick:!quick ~backend missing
    in
    List.iter2
      (fun w b ->
        Hashtbl.replace result_tbl (key w) b;
        Printf.eprintf "  [%s/%s done in %.1fs]\n%!"
          w.Spec_workloads.Workloads.name
          (Machine.backend_name backend)
          b.Experiments.total_wall_s)
      missing computed
  end;
  List.map (fun w -> Hashtbl.find result_tbl (key w)) ws

(** Run [f backend results] for every selected backend over all
    workloads, labelling the output per backend when more than one core
    model is selected. *)
let per_backend_all (f : Experiments.bench_result list -> unit) =
  List.iter
    (fun backend ->
      if both_backends () then
        Printf.printf "-- backend: %s --\n" (Machine.backend_name backend);
      f (results_on backend Spec_workloads.Workloads.all))
    !backends

let result_of ?(backend = Machine.Inorder) name =
  List.hd (results_on backend [ Spec_workloads.Workloads.find name ])

(** The in-order/OoO pairs for the comparison table and the JSON
    [backends] section — and the hard agreement gate: any program-output
    or instruction-count disagreement between the cores fails the run. *)
let backend_pairs () =
  let inorder = results_on Machine.Inorder Spec_workloads.Workloads.all in
  let ooo = results_on Machine.Ooo Spec_workloads.Workloads.all in
  List.iter2
    (fun a b -> Experiments.check_backend_agreement a b)
    inorder ooo;
  List.combine inorder ooo

let table_backends () =
  section "In-order EPIC core vs out-of-order control (profile-driven spec)";
  let pairs = backend_pairs () in
  print_endline Experiments.backends_header;
  List.iter
    (fun (inorder, ooo) ->
      print_endline (Experiments.backends_row ~inorder ~ooo))
    pairs;
  Printf.printf
    "(%d workloads, every output byte-identical across backends)\n"
    (List.length pairs)

(* ------------------------------------------------------------------ *)
(* Engine throughput + memory-dependence predictor sweeps              *)
(* ------------------------------------------------------------------ *)

(** Memoized engine-throughput cells so the table and the JSON section
    share one (strictly sequential — it carries wall times) sweep.
    Every cell asserts the vm reproduced the tree-walking oracle
    exactly; a divergence fails the run. *)
let engine_cells_tbl : Experiments.engine_cell list option ref = ref None

let engine_cells () =
  match !engine_cells_tbl with
  | Some cells -> cells
  | None ->
    let cells =
      Experiments.run_engine_bench ~quick:!quick
        ~reps:(if !quick then 3 else 5)
        Spec_workloads.Workloads.all
    in
    engine_cells_tbl := Some cells;
    cells

let table_engines () =
  section
    "Execution-engine throughput: tree-walking oracle vs threaded-code vm \
     (best-of wall)";
  let cells = engine_cells () in
  print_endline Experiments.engine_header;
  List.iter (fun c -> print_endline (Experiments.engine_row c)) cells;
  Printf.printf
    "(geomean oracle/vm %.2fx over %d workloads; every vm output \
     identical to the oracle)\n"
    (Experiments.engine_geomean cells)
    (List.length cells)

(** Memoized memory-dependence-predictor cells (base builds plus the
    adversarial chain kernel, on the OoO core under each policy);
    outputs and instruction counts must agree across policies or the
    sweep fails. *)
let mdp_cells_tbl : Experiments.mdp_cell list option ref = ref None

let mdp_cells () =
  match !mdp_cells_tbl with
  | Some cells -> cells
  | None ->
    let cells =
      Experiments.run_mdp_sweep ~quick:!quick Spec_workloads.Workloads.all
    in
    mdp_cells_tbl := Some cells;
    cells

let table_mdp () =
  section
    "OoO memory-dependence predictors (base builds + chain kernel)";
  let cells = mdp_cells () in
  print_endline Experiments.mdp_header;
  List.iter (fun c -> print_endline (Experiments.mdp_row cells c)) cells;
  Printf.printf
    "(%d cells; outputs and instruction counts identical across policies)\n"
    (List.length cells)

(** Memoized speculative-safety cells so the table and the JSON section
    share one sweep.  The sweep itself is the gate: every recovery leg
    must reproduce the unoptimized oracle's output byte-for-byte —
    [Experiments.Safety_divergence] escapes and fails the run. *)
let safety_cells_tbl : Experiments.safety_cell list option ref = ref None

let safety_cells () =
  match !safety_cells_tbl with
  | Some cells -> cells
  | None ->
    let cells =
      Experiments.run_safety ~quick:!quick ~seed:!stress_seed
        Spec_workloads.Workloads.all
    in
    safety_cells_tbl := Some cells;
    cells

let table_safety () =
  section
    "Speculative safety: taint-checker verdicts + reload-vs-deopt recovery \
     costs (forced ALAT interference)";
  let cells = safety_cells () in
  print_endline Experiments.safety_header;
  List.iter (fun c -> print_endline (Experiments.safety_row c)) cells;
  List.iter
    (fun (c : Experiments.safety_cell) ->
      List.iter (fun s -> Printf.printf "    %s/%s %s\n" c.Experiments.sf_wname
                    c.Experiments.sf_variant s)
        c.Experiments.sf_sites)
    cells;
  Printf.printf
    "(%d cells; every recovery leg byte-identical to the unoptimized \
     oracle, tree and vm deopt legs in full counter agreement)\n"
    (List.length cells)

let table_smvp () =
  section "Section 5.1 case study: speculative register promotion in equake's smvp";
  let b = result_of "equake" in
  let s = Experiments.smvp_case_study b in
  Printf.printf
    "loads replaced by checks:                      %5.1f%%   (paper: 39.8%%)\n\
     speculative speedup over base:                 %+5.1f%%   (paper: +6%%)\n\
     no-check upper bound (hand-tuned) speedup:     %+5.1f%%   (paper: +14%%)\n"
    s.Experiments.checks_pct s.Experiments.spec_speedup
    s.Experiments.tuned_speedup

let table_fig10 () =
  section "Figure 10: speculative register promotion vs O3 base (profile-driven)";
  per_backend_all (fun results ->
      print_endline Experiments.fig10_header;
      List.iter (fun b -> print_endline (Experiments.fig10_row b)) results)

let table_fig11 () =
  section "Figure 11: dynamic check loads and mis-speculation ratio";
  per_backend_all (fun results ->
      print_endline Experiments.fig11_header;
      List.iter (fun b -> print_endline (Experiments.fig11_row b)) results)

let table_fig12 () =
  section "Figure 12: potential vs achieved load reduction";
  per_backend_all (fun results ->
      print_endline Experiments.fig12_header;
      List.iter (fun b -> print_endline (Experiments.fig12_row b)) results)

let table_heuristics () =
  section "Section 5.2: heuristic rules vs alias profile";
  per_backend_all (fun results ->
      print_endline Experiments.heuristics_header;
      List.iter (fun b -> print_endline (Experiments.heuristics_row b))
        results)

let table_rse () =
  section "Section 5.2: register-stack (RSE) pressure";
  per_backend_all (fun results ->
      print_endline Experiments.rse_header;
      List.iter (fun b -> print_endline (Experiments.rse_row b)) results)

let table_ablate_cspec () =
  section "Ablation: control speculation on/off (speculative PRE)";
  Printf.printf
    "benchmark | loads (cspec on) | loads (off) | cycles (on) | cycles (off)\n";
  List.iter
    (fun (name, l_on, l_off, c_on, c_off) ->
      Printf.printf "%-9s | %16d | %11d | %11d | %12d\n" name l_on l_off c_on
        c_off)
    (Parpool.parmap
       (fun w -> Experiments.ablate_control_spec ~quick:!quick w)
       Spec_workloads.Workloads.all)

(* ------------------------------------------------------------------ *)
(* Misspeculation stress sweep (--stress)                              *)
(* ------------------------------------------------------------------ *)

(** Memoized stress cells so the table and the JSON section share one
    sweep.  Every grid point asserts bit-identical outputs against the
    unoptimized oracle; [Experiments.Stress_divergence] escapes and
    fails the run (that is the CI gate). *)
let stress_cells_tbl :
    (Machine.backend, Experiments.stress_cell list) Hashtbl.t =
  Hashtbl.create 2

let stress_cells backend =
  match Hashtbl.find_opt stress_cells_tbl backend with
  | Some cells -> cells
  | None ->
    let cells =
      Experiments.run_stress ~quick:!quick ~seed:!stress_seed ~backend
        Spec_workloads.Workloads.all
    in
    Hashtbl.replace stress_cells_tbl backend cells;
    cells

(** Stress cells for every selected backend, in backend order (the JSON
    section carries one flat list; each cell names its backend). *)
let all_stress_cells () = List.concat_map stress_cells !backends

let table_stress () =
  section
    (Printf.sprintf
       "Misspeculation stress: ALAT fault injection + adversarial profiles \
        (seed %d)"
       !stress_seed);
  List.iter
    (fun backend ->
      if both_backends () then
        Printf.printf "-- backend: %s --\n" (Machine.backend_name backend);
      let cells = stress_cells backend in
      print_endline Experiments.stress_header;
      List.iter
        (fun c -> print_endline (Experiments.stress_row cells c))
        cells;
      Printf.printf
        "(%d cells, every output bit-identical to the unoptimized oracle)\n"
        (List.length cells))
    !backends

(* ------------------------------------------------------------------ *)
(* Persistent FDO: warm-vs-cold compile cache (--table fdo)             *)
(* ------------------------------------------------------------------ *)

(** Memoized warm-vs-cold cells so the table and the JSON section share
    one sweep.  Each cell asserts the warm compile hit the cache, ran
    zero passes and reproduced the cold program exactly; a violation
    fails the run. *)
let fdo_cells_tbl : Experiments.fdo_result list option ref = ref None

let fdo_cells () =
  match !fdo_cells_tbl with
  | Some cells -> cells
  | None ->
    let cells =
      Experiments.run_fdos ~quick:!quick Spec_workloads.Workloads.all
    in
    List.iter
      (fun (f : Experiments.fdo_result) ->
        if not f.Experiments.f_warm_hit then
          failwith
            (Printf.sprintf "fdo %s: warm compile missed the cache"
               f.Experiments.f_wname);
        if f.Experiments.f_warm_passes <> 0 then
          failwith
            (Printf.sprintf "fdo %s: warm compile ran %d passes"
               f.Experiments.f_wname f.Experiments.f_warm_passes);
        if not f.Experiments.f_identical then
          failwith
            (Printf.sprintf
               "fdo %s: warm program differs from the cold compile"
               f.Experiments.f_wname))
      cells;
    fdo_cells_tbl := Some cells;
    cells

let table_fdo () =
  section
    "Persistent FDO: warm vs cold compiles through the content-addressed \
     cache";
  let cells = fdo_cells () in
  print_endline Experiments.fdo_header;
  List.iter (fun f -> print_endline (Experiments.fdo_row f)) cells;
  Printf.printf
    "(%d workloads; every warm compile hit, ran zero passes, and matched \
     the cold program exactly)\n"
    (List.length cells)

(* ------------------------------------------------------------------ *)
(* Compile throughput: parallel per-function pipeline (--compile-bench) *)
(* ------------------------------------------------------------------ *)

(** Memoized compile-throughput cells so the table and the JSON section
    share one sweep.  Every cell asserts the parallel compile printed a
    byte-identical program to the sequential one; a divergence fails the
    run (that is the CI gate).  The parallel leg uses [--jobs] when
    given, else 4 domains. *)
let compile_cells_tbl : Experiments.compile_result list option ref = ref None

let compile_cells () =
  match !compile_cells_tbl with
  | Some cells -> cells
  | None ->
    let n = if !jobs > 1 then !jobs else 4 in
    let cells =
      Experiments.run_compile_bench ~quick:!quick ~jobs:n
        Spec_workloads.Workloads.all
    in
    List.iter
      (fun (c : Experiments.compile_result) ->
        if not c.Experiments.c_identical then
          failwith
            (Printf.sprintf
               "compile-bench %s: --jobs %d program diverged from --jobs 1"
               c.Experiments.c_wname c.Experiments.c_jobs))
      cells;
    compile_cells_tbl := Some cells;
    cells

let table_compile () =
  let cells = compile_cells () in
  let n = match cells with c :: _ -> c.Experiments.c_jobs | [] -> 1 in
  section
    (Printf.sprintf
       "Compile throughput: per-function pipeline at --jobs 1 vs --jobs %d"
       n);
  print_endline Experiments.compile_header;
  List.iter (fun c -> print_endline (Experiments.compile_row c)) cells;
  Printf.printf
    "(total speedup %.2fx over %d workloads; every parallel program \
     byte-identical to the sequential compile)\n"
    (Experiments.compile_total_speedup cells)
    (List.length cells)

let table_ablate_alat () =
  section "Ablation: ALAT capacity vs mis-speculation (equake)";
  Printf.printf "entries | checks | check misses\n";
  List.iter
    (fun (entries, checks, misses) ->
      Printf.printf "%7d | %6d | %12d\n" entries checks misses)
    (Experiments.ablate_alat ~quick:!quick
       (Spec_workloads.Workloads.find "equake")
       [ 4; 8; 16; 32; 64 ])

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

(** Measure a Bechamel grouped test and return (name, ns/run) rows,
    sorted by name.  Quick mode trims the measurement budget. *)
let measure tests =
  let open Bechamel in
  let open Toolkit in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if !quick then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.filter_map
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some [ est ] -> Some (name, est)
      | Some _ | None -> None)
    (List.sort compare rows)

let micro_phases () =
  section "Compiler-phase microbenchmarks (Bechamel)";
  let open Bechamel in
  let src =
    Spec_workloads.Workloads.train_source
      (Spec_workloads.Workloads.find "equake")
  in
  let tests =
    Test.make_grouped ~name:"phases"
      [ Test.make ~name:"frontend: parse+typecheck+lower"
          (Staged.stage (fun () -> ignore (Spec_ir.Lower.compile src)));
        Test.make ~name:"alias: steensgaard+modref+chi/mu"
          (Staged.stage (fun () ->
               let p = Spec_ir.Lower.compile src in
               ignore (Spec_alias.Annotate.run p)));
        Test.make ~name:"ssa: hssa construction"
          (Staged.stage (fun () ->
               let p = Spec_ir.Lower.compile src in
               let _ = Spec_alias.Annotate.run p in
               Spec_ir.Sir.iter_funcs
                 (fun f ->
                   ignore (Spec_cfg.Cfg_utils.split_critical_edges f : int))
                 p;
               ignore (Spec_ssa.Build_ssa.build p)));
        Test.make ~name:"pipeline: full heuristic PRE (3 rounds)"
          (Staged.stage (fun () ->
               let p = Spec_ir.Lower.compile src in
               ignore (Pipeline.optimize p Pipeline.Spec_heuristic)));
        Test.make ~name:"codegen: lower optimized SIR to ITL"
          (Staged.stage
             (let p = Spec_ir.Lower.compile src in
              let r = Pipeline.optimize p Pipeline.Spec_heuristic in
              fun () -> ignore (Spec_codegen.Codegen.lower r.Pipeline.prog))) ]
  in
  List.iter
    (fun (name, est) -> Printf.printf "%-45s %12.0f ns/run\n" name est)
    (measure tests)

(** Throughput of the three execution engines on the equake train
    kernel: the tree-walking reference interpreter, the threaded-code vm,
    and the resolved ITL machine simulator.  Reported as ns/run plus
    retired statements (or instructions) per second, so engine
    regressions show up as absolute throughput. *)
let micro_engines () =
  section "Execution-engine throughput (Bechamel)";
  let open Bechamel in
  let src =
    Spec_workloads.Workloads.train_source
      (Spec_workloads.Workloads.find "equake")
  in
  let iprog = Spec_ir.Lower.compile src in
  let vprog = Spec_prof.Vmcode.compile (Spec_ir.Lower.compile src) in
  let rp =
    let p = Spec_ir.Lower.compile src in
    let r = Pipeline.optimize p Pipeline.Base in
    let mp = Spec_codegen.Codegen.lower r.Pipeline.prog in
    ignore (Spec_codegen.Schedule.run mp : Spec_codegen.Schedule.stats);
    Spec_machine.Machine.resolve mp
  in
  let steps =
    (Spec_prof.Vm.run_program vprog).Spec_prof.Interp.counters
      .Spec_prof.Interp.steps
  in
  let insns =
    (Spec_machine.Machine.run_resolved rp).Spec_machine.Machine.perf
      .Spec_machine.Machine.insns
  in
  let tests =
    Test.make_grouped ~name:"engines"
      [ Test.make ~name:"interp-ref: tree-walking oracle"
          (Staged.stage (fun () -> ignore (Spec_prof.Interp_ref.run iprog)));
        Test.make ~name:"vm: threaded-code bytecode"
          (Staged.stage (fun () ->
               ignore (Spec_prof.Vm.run_program vprog)));
        Test.make ~name:"machine: resolved ITL simulator"
          (Staged.stage (fun () ->
               ignore (Spec_machine.Machine.run_resolved rp))) ]
  in
  let work =
    [ "engines/interp-ref: tree-walking oracle", (steps, "stmt");
      "engines/vm: threaded-code bytecode", (steps, "stmt");
      "engines/machine: resolved ITL simulator", (insns, "insn") ]
  in
  List.iter
    (fun (name, est) ->
      match List.assoc_opt name work with
      | Some (n, unit_) ->
        Printf.printf "%-45s %12.0f ns/run  %8.1f M%s/s\n" name est
          (float_of_int n /. est *. 1e3) unit_
      | None -> Printf.printf "%-45s %12.0f ns/run\n" name est)
    (measure tests)

let micro () =
  micro_phases ();
  micro_engines ()

(* ------------------------------------------------------------------ *)
(* Compile-service traffic replay (--traffic)                          *)
(* ------------------------------------------------------------------ *)

(** Memoized traffic-replay cell so the table and the JSON section share
    one replay.  The replay itself is the gate: it raises
    [Spec_service.Traffic.Divergence] — failing the run — if any
    daemon-served compile differs byte-for-byte from a direct
    in-process compile with the same evidence, if a repeated key is
    served cold again, or if the daemon's error counter is nonzero
    after a well-formed request stream. *)
let traffic_cell_tbl : Spec_service.Traffic.cell option ref = ref None

let traffic_cell () =
  match !traffic_cell_tbl with
  | Some cell -> cell
  | None ->
    let cell =
      Spec_service.Traffic.run_traffic_replay ~quick:!quick ~seed:1 ()
    in
    traffic_cell_tbl := Some cell;
    cell

let table_traffic () =
  section
    "Compile service: deterministic traffic replay over a unix socket";
  let c = traffic_cell () in
  let open Spec_service.Traffic in
  Printf.printf
    "requests | units | cold | warm | joined | parked | reports | recompiles\n";
  Printf.printf "%8d | %5d | %4d | %4d | %6d | %6d | %7d | %10d\n"
    c.t_requests c.t_units c.t_cold c.t_warm c.t_joined c.t_parked
    c.t_reports c.t_recompiles;
  Printf.printf
    "latency p50 %.3f ms  p99 %.3f ms  throughput %.1f req/s  \
     (%.2f s replay, seed %d)\n"
    c.t_p50_ms c.t_p99_ms c.t_rps c.t_wall_s c.t_seed;
  Printf.printf
    "(every daemon-served compile was byte-identical to a direct \
     in-process compile)\n"

(* ------------------------------------------------------------------ *)
(* Machine-readable bench dump (--json)                                *)
(* ------------------------------------------------------------------ *)

let date_string () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday

(** [--json]: run the harness on every workload and dump the bench
    trajectory record (see {!Bench_json} for the schema) — printed on
    stdout and, unless [--json-file -], written to [BENCH_<date>.json]
    (or the [--json-file] path) so it can be committed as a baseline for
    future PRs to diff against.  With [--stress] the dump also carries
    the stress sweep. *)
let json_dump () =
  let t0 = Unix.gettimeofday () in
  let ws = Spec_workloads.Workloads.all in
  let blobs =
    List.concat_map
      (fun backend ->
        let results = results_on backend ws in
        Parpool.parmap
          (fun (w, b) -> Bench_json.workload_json w b)
          (List.combine ws results))
      !backends
  in
  (* under --backend both the agreement gate runs before anything is
     written: a backend divergence must fail the dump, not be recorded *)
  let backends_blob =
    if both_backends () then
      Some (Bench_json.backends_json (backend_pairs ()))
    else None
  in
  (* the engine-throughput and mdp sweeps are cheap next to the variant
     matrix, so every dump carries them — the committed baselines keep
     an engine-speedup trail the same way they keep the harness wall *)
  let engines_blob = Some (Bench_json.engines_json (engine_cells ())) in
  let mdp_blob = Some (Bench_json.mdp_json (mdp_cells ())) in
  (* the safety sweep always rides along: the committed baselines keep a
     verdict + recovery-cost trail the same way they keep engine speedups *)
  let safety_blob =
    Some (Bench_json.safety_json ~seed:!stress_seed (safety_cells ()))
  in
  let stress_blob =
    if !stress then
      Some (Bench_json.stress_json ~seed:!stress_seed (all_stress_cells ()))
    else None
  in
  let fdo_blob =
    if !fdo || List.mem "fdo" !tables then
      Some (Bench_json.fdo_json (fdo_cells ()))
    else None
  in
  let compile_blob =
    if !compile_bench || List.mem "compile" !tables then
      Some (Bench_json.compile_json (compile_cells ()))
    else None
  in
  let service_blob =
    if !traffic || List.mem "traffic" !tables then
      Some (Spec_service.Traffic.to_json (traffic_cell ()))
    else None
  in
  let wall = Unix.gettimeofday () -. t0 in
  let out =
    Bench_json.dump ~date:(date_string ())
      ~inputs:(if !quick then "train" else "ref")
      ~jobs:(Parpool.get_jobs ()) ~harness_wall_s:wall
      (* wall time of the pre-overhaul harness on this machine, for the
         speedup trail (see EXPERIMENTS.md) *)
      ?pre_pr2_quick_wall_s:(if !quick then Some 13.194 else None)
      ?backends:backends_blob ?engines:engines_blob ?mdp:mdp_blob
      ?stress:stress_blob ?fdo:fdo_blob
      ?compile:compile_blob ?safety:safety_blob ?service:service_blob
      blobs
  in
  print_string out;
  match !json_file with
  | Some "-" -> ()
  | dest ->
    let path =
      match dest with
      | Some p -> p
      | None -> "BENCH_" ^ date_string () ^ ".json"
    in
    let oc = open_out path in
    output_string oc out;
    close_out oc;
    Printf.eprintf "wrote %s\n%!" path

let table_ablate_threshold () =
  section
    "Ablation: alias-likeliness threshold (speculate past rare real aliases)";
  Printf.printf "threshold | loads | checks | misses | cycles\n";
  List.iter
    (fun (t, loads, checks, misses, cycles) ->
      Printf.printf "%9.2f | %5d | %6d | %6d | %6d\n" t loads checks misses
        cycles)
    (Experiments.ablate_threshold [ 0.0; 0.01; 0.05; 0.10; 0.50 ])

let table_ablate_sched () =
  section "Ablation: local list scheduling on the speculative build";
  Printf.printf "benchmark | cycles (unscheduled) | cycles (scheduled) | gain %%\n";
  List.iter
    (fun (name, plain, sched) ->
      Printf.printf "%-9s | %20d | %18d | %+6.1f\n" name plain sched
        (100. *. (float_of_int plain /. float_of_int sched -. 1.)))
    (Parpool.parmap
       (fun w -> Experiments.ablate_schedule ~quick:!quick w)
       Spec_workloads.Workloads.all)

let known_tables =
  [ "smvp", table_smvp; "fig10", table_fig10; "fig11", table_fig11;
    "fig12", table_fig12; "heuristics", table_heuristics; "rse", table_rse;
    "ablate-cspec", table_ablate_cspec; "ablate-alat", table_ablate_alat;
    "ablate-threshold", table_ablate_threshold;
    "ablate-sched", table_ablate_sched; "micro", micro;
    "stress", table_stress; "fdo", table_fdo; "compile", table_compile;
    "backends", table_backends; "engines", table_engines;
    "mdp", table_mdp; "safety", table_safety; "traffic", table_traffic ]

(* every flag [parse] accepts; a flag that takes a value is unknown when
   the value is missing *)
let known_args =
  "--quick, --full, --jobs N, --table NAME, --micro, --stress, \
   --stress-seed N, --fdo, --compile-bench, --traffic, \
   --backend inorder|ooo|both, --json, --json-file PATH"

let () =
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest -> quick := false; parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | "--micro" :: rest -> tables := "micro" :: !tables; parse rest
    | "--stress" :: rest -> stress := true; parse rest
    | "--fdo" :: rest -> fdo := true; parse rest
    | "--compile-bench" :: rest -> compile_bench := true; parse rest
    | "--traffic" :: rest -> traffic := true; parse rest
    | "--stress-seed" :: n :: rest ->
      (match int_of_string_opt n with
       | Some n -> stress_seed := n
       | _ ->
         Printf.eprintf "--stress-seed expects an integer, got %s\n" n;
         exit 2);
      parse rest
    | "--backend" :: b :: rest ->
      (match b with
       | "both" -> backends := Machine.all_backends
       | b ->
         (match Machine.backend_of_string b with
          | Some k -> backends := [ k ]
          | None ->
            Printf.eprintf "--backend expects inorder|ooo|both, got %s\n" b;
            exit 2));
      parse rest
    | "--json" :: rest -> json := true; parse rest
    | "--json-file" :: p :: rest -> json_file := Some p; parse rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n >= 1 -> jobs := n
       | _ ->
         Printf.eprintf "--jobs expects a positive integer, got %s\n" n;
         exit 2);
      parse rest
    | "--table" :: t :: rest ->
      if not (List.mem_assoc t known_tables) then begin
        Printf.eprintf "unknown table %s (known: %s)\n" t
          (String.concat ", " (List.map fst known_tables));
        exit 2
      end;
      tables := t :: !tables;
      parse rest
    | a :: _ ->
      Printf.eprintf "unknown argument %s (known: %s)\n" a known_args;
      exit 2
  in
  parse (List.tl args);
  if !jobs > 1 then Parpool.set_jobs !jobs;
  if !json then begin
    (* machine-readable mode: nothing but JSON on stdout *)
    json_dump ();
    exit 0
  end;
  Printf.printf
    "specpre benchmark harness (%s inputs)\n\
     Reproduces: Lin, Chen, Hsu, Yew, Ju, Ngai, Chan.\n\
     \"A Compiler Framework for Speculative Analysis and Optimizations\", \
     PLDI 2003.\n"
    (if !quick then "train/quick" else "ref/full");
  let to_run =
    if !stress && !tables = [] then [ "stress" ]
    else if !fdo && !tables = [] then [ "fdo" ]
    else if !compile_bench && !tables = [] then [ "compile" ]
    else if !traffic && !tables = [] then [ "traffic" ]
    else if !tables = [] then
      [ "smvp"; "fig10"; "fig11"; "fig12"; "heuristics"; "rse";
        "ablate-cspec"; "ablate-alat"; "ablate-threshold"; "ablate-sched";
        "fdo"; "compile"; "engines"; "mdp"; "safety" ]
      @ (if both_backends () then [ "backends" ] else [])
      @ [ "micro" ]
    else List.rev !tables
  in
  List.iter (fun t -> List.assoc t known_tables ()) to_run

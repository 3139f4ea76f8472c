(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (§5) and the ablation studies called out in
   DESIGN.md.

   Usage:
     bench/main.exe                 -- all paper tables on ref inputs
     bench/main.exe --quick         -- train-sized inputs (fast smoke run)
     bench/main.exe --jobs 4       -- fan workloads/variants out to 4 domains
     bench/main.exe --table fig10   -- a single table
     bench/main.exe --stress        -- misspeculation stress sweep (ALAT
                                       fault injection + adversarial
                                       profiles; --stress-seed N picks the
                                       fault streams, default 1)
     bench/main.exe --json          -- the bench record on stdout: JSON,
                                       deterministic counters only (see
                                       Bench_json); with --stress it gains
                                       a "stress" section
     bench/main.exe --fdo           -- persistent-FDO warm-vs-cold compile
                                       cache bench (also available as
                                       --table fdo; with --json the record
                                       gains an "fdo" section)
     bench/main.exe --table backends -- in-order EPIC core vs out-of-order
                                       control: hard-fails if the cores
                                       disagree on program output or
                                       instruction counts (with --json the
                                       record gains a "backends" section)
     bench/main.exe --table mdp     -- OoO memory-dependence predictor
                                       sweep (store-set, last-violator,
                                       none; always in the record as "mdp")
     bench/main.exe --table safety  -- speculative-safety sweep: taint
                                       checker verdicts per variant plus
                                       reload-vs-deopt recovery costs
                                       under forced ALAT interference
                                       (always in the record as "safety")
     bench/main.exe --traffic       -- compile-service traffic replay
                                       (also --table traffic; not in the
                                       record)

   Tables: smvp fig10 fig11 fig12 heuristics rse stress fdo backends mdp
           safety ablate-cspec ablate-alat ablate-threshold ablate-sched
           traffic

   The paper's tables run on the in-order core, as the paper's did; the
   out-of-order control runs only where it answers a question of its
   own: the backends and mdp tables and the stress table's OoO column.
   Every variant also runs on the vm, which must reproduce the machine's
   output.  Each workload is built once, on demand (one profile of its
   train input and one compile per variant, see Experiments.prepare),
   and the build is memoized, as is its in-order measurement, which
   only the tables that print it make: `--table smvp` only runs
   equake, and `--stress`, `--fdo`, `--table mdp` and `--table safety`
   measure nothing on the in-order core.  Table output is deterministic in
   [--jobs] (see Parpool): test/quick_tables.txt (470 lines) pins the
   --quick output of the paper's tables, safety, stress, backends and
   the four ablations, and dune runtest diffs it at --jobs 1 and at
   --jobs 3.  An unknown argument or table name exits 2. *)

open Spec_driver

module Machine = Spec_machine.Machine

let quick = ref false
let tables = ref []
let jobs = ref 1
let json = ref false
let stress = ref false
let stress_seed = ref 1
let fdo = ref false
let traffic = ref false

let section title = Printf.printf "\n== %s ==\n%!" title

(* ------------------------------------------------------------------ *)
(* Per-workload memoized builds and results                            *)
(* ------------------------------------------------------------------ *)

(** [List.map f xs], memoized in [tbl] under [key x]: only the entries
    not already there are computed, in parallel; output order follows
    [xs]. *)
let memo tbl key f xs =
  let missing = List.filter (fun x -> not (Hashtbl.mem tbl (key x))) xs in
  List.iter2
    (fun x y -> Hashtbl.replace tbl (key x) y)
    missing (Parpool.parmap f missing);
  List.map (fun x -> Hashtbl.find tbl (key x)) xs

let build_tbl : (string, Experiments.build) Hashtbl.t = Hashtbl.create 16

let result_tbl : (string, Experiments.bench_result) Hashtbl.t =
  Hashtbl.create 16

(** The builds of [ws]: the sweeps that run what they vary on a build
    (mdp, stress, fdo, safety) need nothing else. *)
let builds_of ws =
  memo build_tbl
    (fun w -> w.Spec_workloads.Workloads.name)
    (Experiments.prepare ~quick:!quick)
    ws

(** In-order results for [ws], measured on their builds. *)
let results ws =
  memo result_tbl
    (fun b -> b.Experiments.workload.Spec_workloads.Workloads.name)
    (fun b -> Experiments.measure b)
    (builds_of ws)

let all_results () = results Spec_workloads.Workloads.all

let builds () = builds_of Spec_workloads.Workloads.all

let build_of name = List.hd (builds_of [ Spec_workloads.Workloads.find name ])

let result_of name = List.hd (results [ Spec_workloads.Workloads.find name ])

(** The in-order/OoO pairs for the comparison table and the record's
    [backends] section.  The OoO core re-runs the in-order results'
    builds only here, and its hard agreement gate runs before anything
    is printed or recorded: any program-output or instruction-count
    disagreement between the cores fails the run. *)
let backend_pairs =
  lazy
    (let inorder = all_results () in
     let ooo =
       Parpool.parmap
         (fun b -> Experiments.measure ~backend:Machine.Ooo b.Experiments.build)
         inorder
     in
     List.iter2 Experiments.check_backend_agreement inorder ooo;
     List.combine inorder ooo)

let table_backends () =
  section "In-order EPIC core vs out-of-order control (profile-driven spec)";
  let pairs = Lazy.force backend_pairs in
  print_endline Experiments.backends_header;
  List.iter
    (fun (inorder, ooo) ->
      print_endline (Experiments.backends_row ~inorder ~ooo))
    pairs;
  Printf.printf
    "(%d workloads, every output byte-identical across backends)\n"
    (List.length pairs)

(* ------------------------------------------------------------------ *)
(* Memory-dependence predictor and safety sweeps                       *)
(* ------------------------------------------------------------------ *)

(** Memoized memory-dependence-predictor cells (base builds plus the
    adversarial chain kernel, on the OoO core under each policy);
    outputs and instruction counts must agree across policies or the
    sweep fails. *)
let mdp_cells =
  lazy
    (Experiments.run_mdp_sweep (builds ())
     @ Experiments.mdp_chain ~quick:!quick ())

let table_mdp () =
  section
    "OoO memory-dependence predictors (base builds + chain kernel)";
  let cells = Lazy.force mdp_cells in
  print_endline Experiments.mdp_header;
  List.iter (fun c -> print_endline (Experiments.mdp_row cells c)) cells;
  Printf.printf
    "(%d cells; outputs and instruction counts identical across policies)\n"
    (List.length cells)

(** Memoized speculative-safety cells so the table and the record
    share one sweep.  The sweep itself is the gate: the reload leg and
    the deopt leg must each print the unoptimized oracle's output (the
    aggressive variant, which has no checks, its own fault-free output)
    — [Experiments.Safety_divergence] escapes and fails the run. *)
let safety_cells =
  lazy (Experiments.run_safety ~seed:!stress_seed (builds ()))

let table_safety () =
  section
    "Speculative safety: taint-checker verdicts + reload-vs-deopt recovery \
     costs (forced ALAT interference)";
  let cells = Lazy.force safety_cells in
  print_endline Experiments.safety_header;
  List.iter (fun c -> print_endline (Experiments.safety_row c)) cells;
  List.iter
    (fun (c : Experiments.safety_cell) ->
      List.iter (fun s -> Printf.printf "    %s/%s %s\n" c.Experiments.sf_wname
                    c.Experiments.sf_variant s)
        c.Experiments.sf_sites)
    cells;
  Printf.printf
    "(%d cells; the reload and deopt legs each printed the unoptimized \
     oracle's output, aggressive its own fault-free output)\n"
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

(* one row per workload, from the in-order results *)
let print_rows header row =
  print_endline header;
  List.iter (fun b -> print_endline (row b)) (all_results ())

let table_fig10 () =
  section "Figure 10: speculative register promotion vs O3 base (profile-driven)";
  print_rows Experiments.fig10_header Experiments.fig10_row

let table_fig11 () =
  section "Figure 11: dynamic check loads and mis-speculation ratio";
  print_rows Experiments.fig11_header Experiments.fig11_row

let table_fig12 () =
  section "Figure 12: potential vs achieved load reduction";
  print_rows Experiments.fig12_header Experiments.fig12_row

let table_heuristics () =
  section "Section 5.2: heuristic rules vs alias profile";
  print_rows Experiments.heuristics_header Experiments.heuristics_row

let table_rse () =
  section "Section 5.2: register-stack (RSE) pressure";
  print_rows Experiments.rse_header Experiments.rse_row

let table_ablate_cspec () =
  section "Ablation: control speculation on/off (speculative PRE)";
  Printf.printf
    "benchmark | loads (cspec on) | loads (off) | cycles (on) | cycles (off)\n";
  List.iter
    (fun (name, l_on, l_off, c_on, c_off) ->
      Printf.printf "%-9s | %16d | %11d | %11d | %12d\n" name l_on l_off c_on
        c_off)
    (Parpool.parmap Experiments.ablate_control_spec (all_results ()))

(* ------------------------------------------------------------------ *)
(* Misspeculation stress sweep (--stress)                              *)
(* ------------------------------------------------------------------ *)

(** Memoized in-order stress cells so the table and the record share
    one sweep.  Every grid point asserts bit-identical outputs
    against the unoptimized oracle; [Experiments.Stress_divergence]
    escapes and fails the run (that is the CI gate). *)
let stress_cells =
  lazy (Experiments.run_stress ~seed:!stress_seed (builds ()))

(** The same sweep on the OoO core, for the table's [ooo miss/cyc]
    column only.  Its fault streams are keyed by the [machine-ooo] scope,
    and it holds every output to the same oracle. *)
let ooo_stress_cells =
  lazy
    (Experiments.run_stress ~seed:!stress_seed ~backend:Machine.Ooo
       (builds ()))

let table_stress () =
  section
    (Printf.sprintf
       "Misspeculation stress: ALAT fault injection + adversarial profiles \
        (seed %d)"
       !stress_seed);
  let cells = Lazy.force stress_cells in
  print_endline (Experiments.stress_header ^ " | ooo miss/cyc");
  (* both sweeps walk the same (workload, point, variant) sequence *)
  List.iter2
    (fun c (o : Experiments.stress_cell) ->
      Printf.printf "%s | %5d/%-6d\n" (Experiments.stress_row cells c)
        o.sc_misses o.sc_cycles)
    cells (Lazy.force ooo_stress_cells);
  Printf.printf
    "(%d cells, every output bit-identical to the unoptimized oracle)\n"
    (List.length cells)

(* ------------------------------------------------------------------ *)
(* Persistent FDO: warm-vs-cold compile cache (--table fdo)             *)
(* ------------------------------------------------------------------ *)

(** Memoized warm-vs-cold cells so the table and the record share one
    sweep.  Each cell asserts the warm compile hit the cache, ran
    zero passes and reproduced the cold program exactly; a violation
    fails the run. *)
let fdo_cells =
  lazy
    (let cells = Experiments.run_fdos (builds ()) in
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
     cells)

let table_fdo () =
  section
    "Persistent FDO: warm vs cold compiles through the content-addressed \
     cache";
  let cells = Lazy.force fdo_cells in
  print_endline Experiments.fdo_header;
  List.iter (fun f -> print_endline (Experiments.fdo_row f)) cells;
  Printf.printf
    "(%d workloads; every warm compile hit, ran zero passes, and matched \
     the cold program exactly)\n"
    (List.length cells)

let table_ablate_alat () =
  section "Ablation: ALAT capacity vs mis-speculation (equake)";
  Printf.printf "entries | checks | check misses\n";
  List.iter
    (fun (entries, checks, misses) ->
      Printf.printf "%7d | %6d | %12d\n" entries checks misses)
    (Experiments.ablate_alat (build_of "equake") [ 4; 8; 16; 32; 64 ])

(* ------------------------------------------------------------------ *)
(* Compile-service traffic replay (--traffic)                          *)
(* ------------------------------------------------------------------ *)

(** The replay itself is the gate: it raises
    [Spec_service.Traffic.Divergence] — failing the run — if any
    daemon-served compile differs byte-for-byte from a direct
    in-process compile with the same evidence, if a repeated key is
    served cold again, or if the daemon's error counter is nonzero
    after a well-formed request stream. *)
let table_traffic () =
  section
    "Compile service: deterministic traffic replay over a unix socket";
  let c = Spec_service.Traffic.run_traffic_replay ~quick:!quick ~seed:1 () in
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
(* The bench record (--json)                                           *)
(* ------------------------------------------------------------------ *)

(** [--json]: run the harness on every workload and print the bench
    record (see {!Bench_json}) on stdout.  It always carries the mdp and
    safety sweeps; [--table backends], [--stress] and [--fdo] add their
    sections. *)
let json_record () =
  let optional name on json = if on then [ (name, json ()) ] else [] in
  (* the agreement gate runs before anything is printed: a backend
     divergence must fail the record, not be recorded *)
  let sections =
    List.concat
      [ [ ( "workloads",
            Bench_json.Arr
              (List.map Bench_json.workload_json (all_results ())) ) ];
        optional "backends" (List.mem "backends" !tables) (fun () ->
            Bench_json.backends_json (Lazy.force backend_pairs));
        [ ("mdp", Bench_json.mdp_json (Lazy.force mdp_cells)) ];
        optional "stress" !stress (fun () ->
            Bench_json.stress_json ~seed:!stress_seed
              (Lazy.force stress_cells));
        optional "fdo" (!fdo || List.mem "fdo" !tables) (fun () ->
            Bench_json.fdo_json (Lazy.force fdo_cells));
        [ ( "safety",
            Bench_json.safety_json ~seed:!stress_seed
              (Lazy.force safety_cells) ) ] ]
  in
  print_endline
    (Bench_json.to_string
       (Bench_json.record ~inputs:(if !quick then "train" else "ref")
          sections))

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
    (Parpool.parmap Experiments.ablate_schedule (all_results ()))

let known_tables =
  [ "smvp", table_smvp; "fig10", table_fig10; "fig11", table_fig11;
    "fig12", table_fig12; "heuristics", table_heuristics; "rse", table_rse;
    "ablate-cspec", table_ablate_cspec; "ablate-alat", table_ablate_alat;
    "ablate-threshold", table_ablate_threshold;
    "ablate-sched", table_ablate_sched;
    "stress", table_stress; "fdo", table_fdo; "backends", table_backends;
    "mdp", table_mdp; "safety", table_safety; "traffic", table_traffic ]

(* every flag [parse] accepts; a flag that takes a value is unknown when
   the value is missing *)
let known_args =
  "--quick, --full, --jobs N, --table NAME, --stress, --stress-seed N, \
   --fdo, --traffic, --json"

let () =
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest -> quick := false; parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | "--stress" :: rest -> stress := true; parse rest
    | "--fdo" :: rest -> fdo := true; parse rest
    | "--traffic" :: rest -> traffic := true; parse rest
    | "--stress-seed" :: n :: rest ->
      (match int_of_string_opt n with
       | Some n -> stress_seed := n
       | _ ->
         Printf.eprintf "--stress-seed expects an integer, got %s\n" n;
         exit 2);
      parse rest
    | "--json" :: rest -> json := true; parse rest
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
    json_record ();
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
    else if !traffic && !tables = [] then [ "traffic" ]
    else if !tables = [] then
      [ "smvp"; "fig10"; "fig11"; "fig12"; "heuristics"; "rse";
        "ablate-cspec"; "ablate-alat"; "ablate-threshold"; "ablate-sched";
        "fdo"; "mdp"; "safety"; "backends" ]
    else List.rev !tables
  in
  List.iter (fun t -> List.assoc t known_tables ()) to_run

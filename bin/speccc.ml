(* speccc: command-line driver for the speculative compiler.

   Compile a mini-C source file, optionally profile it, optimize it under a
   chosen speculation policy, and run it on the threaded-code vm or the
   ITL machine simulator.

     speccc run prog.c                      execute on the vm, print output
     speccc run --machine prog.c            simulate on the ITL machine
     speccc run --machine --backend ooo prog.c   on the out-of-order core
     speccc run --faults inv=10000 prog.c   misspeculation stress run
     speccc run --cache-dir .speccc-cache prog.c   warm compiles skip passes
     speccc dump --phase ssa prog.c         print IR after a phase
     speccc stats --mode profile prog.c     perf counters for all variants
     speccc stats --backend ooo prog.c      ... on the out-of-order core
     speccc profile record prog.c -o p.sprof    persist a training run
     speccc profile merge -o m.sprof a.sprof b.sprof
     speccc profile stale-check p.sprof edited.c
     speccc serve --socket svc.sock --cache-dir .c   compile service daemon
     speccc client compile prog.c --unit u      compile via the daemon
     speccc client report-profile u p.sprof     online FDO: merge + drift
     speccc client stats                        daemon counters
     speccc client shutdown                     clean stop

   Persistent FDO: a training run's profile can be saved to a *.sprof
   store (--profile-out), merged across runs with optional exponential
   decay, and fed back to later compiles (--profile-in) — including of
   edited sources, where stale-profile matching re-binds what it can and
   conservatively forgoes speculation elsewhere.  --cache-dir enables
   the content-addressed compile cache: an unchanged (source, variant,
   profile) triple skips every optimization pass. *)

open Cmdliner
open Spec_ir
open Spec_driver

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Run [f] on the text of a source file.  A lexing, parsing or lowering
   error in it is the user's, not speccc's: report it as FILE:LINE and
   exit 2, the code of every other semantic error.  So is an error the
   program raises when it runs (a memory fault, a bad builtin argument,
   running out of fuel) on the vm, in a training run or on the machine:
   report it as FILE: runtime error: MSG. *)
let with_source file f =
  let src = read_file file in
  try f src with
  | Ast.Frontend_error (line, msg) ->
    Printf.eprintf "speccc: %s:%d: %s\n" file line msg;
    exit 2
  | Spec_prof.Interp.Runtime_error msg
  | Spec_machine.Machine.Machine_error msg ->
    Printf.eprintf "speccc: %s: runtime error: %s\n" file msg;
    exit 2

let src_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"mini-C source file")

let mode_arg =
  Arg.(value
       & opt (enum [ "none", `None; "base", `Base; "profile", `Profile;
                     "heuristic", `Heuristic; "aggressive", `Aggressive ])
           `Base
       & info [ "mode"; "m" ] ~docv:"MODE"
           ~doc:"speculation policy: none, base, profile, heuristic, \
                 aggressive")

let variant_of_mode prof = function
  | `None -> Pipeline.Noopt
  | `Base -> Pipeline.Base
  | `Profile -> Pipeline.Spec_profile prof
  | `Heuristic -> Pipeline.Spec_heuristic
  | `Aggressive -> Pipeline.Aggressive

(* ---- persistent-FDO plumbing ---- *)

let load_store path =
  match Spec_fdo.Store.load path with
  | Ok s -> s
  | Error msg ->
    Printf.eprintf "speccc: %s: %s\n" path msg;
    exit 2

type evidence = {
  ev_prof : Spec_prof.Profile.t;
  ev_digest : string option;   (** store digest, keys the compile cache *)
}

(* Profile evidence for one invocation, computed exactly once: the same
   training run (or persisted store) seeds the Spec_profile variant, the
   edge profile for control speculation, and the compile-cache key.
   Fresh runs are round-tripped through the store so that a compile fed
   by --profile-in of the recorded store makes identical decisions. *)
let evidence ?profile_in ?profile_out src =
  match profile_in with
  | Some path ->
    let store = load_store path in
    let prog = Lower.compile src in
    let prof, mr = Spec_fdo.Store.bind store prog in
    let rate = Spec_fdo.Store.match_rate mr in
    if rate < 1.0 then
      Printf.eprintf "profile: stale store %s: %.1f%% of sites matched\n"
        path (100. *. rate);
    (match profile_out with
     | Some out -> Spec_fdo.Store.save out store
     | None -> ());
    { ev_prof = prof; ev_digest = Some (Spec_fdo.Store.digest store) }
  | None ->
    let prog, prof0, _ = Pipeline.train src in
    let store = Spec_fdo.Store.of_profile prog prof0 in
    (match profile_out with
     | Some out -> Spec_fdo.Store.save out store
     | None -> ());
    let prof, _ = Spec_fdo.Store.bind store prog in
    { ev_prof = prof; ev_digest = Some (Spec_fdo.Store.digest store) }

let optimize_src ?(verify_each = false) ?(deopt = false) ?(safety = false)
    ?perturb ?cache ?threshold ~ev src mode =
  let variant = variant_of_mode ev.ev_prof mode in
  let config =
    match threshold with
    | None -> None
    | Some t ->
      Some
        { (Spec_ssapre.Ssapre.default_config (Pipeline.mode_of_variant variant))
          with Spec_ssapre.Ssapre.alias_threshold = t }
  in
  Pipeline.compile_and_optimize ~verify_each ~deopt ~safety ~config
    ~edge_profile:(Some ev.ev_prof) ?perturb ?cache
    ?profile_digest:ev.ev_digest src variant

(* ---- the back end ---- *)

(* Lower to ITL and list-schedule it, as every harness table does (like
   the paper's O3 baseline), with a --timings row for each step *)
let lower_scheduled prog =
  let t0 = Unix.gettimeofday () in
  let mp = Spec_codegen.Codegen.lower prog in
  let t1 = Unix.gettimeofday () in
  let st = Spec_codegen.Schedule.run mp in
  let t2 = Unix.gettimeofday () in
  let insns =
    Hashtbl.fold
      (fun _ (f : Spec_codegen.Itl.mfunc) n ->
        Array.fold_left
          (fun n (b : Spec_codegen.Itl.mblock) ->
            n + List.length b.Spec_codegen.Itl.insns + 1)
          n f.Spec_codegen.Itl.mf_blocks)
      mp.Spec_codegen.Itl.mp_funcs 0
  in
  let row name time counters =
    { Passes.ps_pass = name; ps_runs = 1; ps_touched = 1; ps_time = time;
      ps_counters = counters }
  in
  ( mp,
    [ row "codegen" (t1 -. t0) [ ("static-insns", insns) ];
      row "schedule" (t2 -. t1)
        [ ("blocks", st.Spec_codegen.Schedule.blocks);
          ("moved", st.Spec_codegen.Schedule.moved) ] ] )

(* [report] with the back end's rows after the passes' *)
let with_rows (report : Passes.report) rows =
  { report with
    Passes.rp_passes = report.Passes.rp_passes @ rows;
    rp_total_time =
      List.fold_left
        (fun t row -> t +. row.Passes.ps_time)
        report.Passes.rp_total_time rows }

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"compile with N domains: the per-function portion of each \
                 pipeline segment fans out to a fixed pool while \
                 whole-program analyses stay sequential; the optimized \
                 program is byte-identical for every N")

let set_jobs jobs =
  if jobs < 1 then begin
    Printf.eprintf "speccc: --jobs must be >= 1\n";
    exit 2
  end;
  Parpool.set_jobs jobs

let verify_arg =
  Arg.(value & flag
       & info [ "verify-each" ]
           ~doc:"validate CFG and SSA invariants between passes; name the \
                 offending pass on failure")

let timings_arg =
  Arg.(value & flag
       & info [ "timings" ]
           ~doc:"print per-pass wall time, per-pass statistics and \
                 analysis-cache counters")

let profile_in_arg =
  Arg.(value & opt (some file) None
       & info [ "profile-in" ] ~docv:"FILE"
           ~doc:"feed a persisted profile store (*.sprof) to the compile \
                 instead of a fresh training run; stale sites are matched \
                 by stable key and unmatched ones forgo speculation")

let profile_out_arg =
  Arg.(value & opt (some string) None
       & info [ "profile-out" ] ~docv:"FILE"
           ~doc:"persist this invocation's profile store (*.sprof)")

let cache_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"content-addressed compile cache; a hit skips every \
                 optimization pass (counters go to stderr)")

let threshold_arg =
  Arg.(value & opt (some float) None
       & info [ "threshold" ] ~docv:"X"
           ~doc:"speculation frequency threshold: flag an alias as likely \
                 (chi-s) only when the profile says it substantiates more \
                 than this fraction of executions")

(* ---- speculative safety / recovery knobs ---- *)

let safety_arg =
  Arg.(value
       & opt (enum [ "off", `Off; "report", `Report; "strict", `Strict ])
           `Off
       & info [ "safety" ] ~docv:"MODE"
           ~doc:"speculative-taint checker over the optimized program: \
                 $(b,off) (default), $(b,report) (print the per-site \
                 report), or $(b,strict) (report, and fail the compile \
                 with a nonzero exit on any CONFIRMED site)")

let recover_arg =
  Arg.(value
       & opt (enum [ "reload", `Reload; "deopt", `Deopt ]) `Reload
       & info [ "recover" ] ~docv:"POLICY"
           ~doc:"failed-check recovery: $(b,reload) (re-execute the \
                 load, default) or $(b,deopt) (transfer to the \
                 unoptimized body at the equivalent point; runs on the \
                 vm, not with --machine)")

(* Print the checker report; under --safety strict a confirmed site
   fails the invocation with a one-line diagnostic. *)
let handle_safety safety (r : Pipeline.result) =
  match safety, r.Pipeline.safety with
  | `Off, _ | _, None -> ()
  | (`Report | `Strict), Some rep ->
    print_string (Spec_safety.Spectct.to_string rep);
    if safety = `Strict && not (Spec_safety.Spectct.strict_ok rep)
    then begin
      Printf.eprintf
        "speccc: --safety strict: confirmed speculative-taint sites \
         (see report above)\n";
      exit 1
    end

(* A deopt plan is built over a fresh lowering of the same source:
   deterministic lowering reproduces the statement/variable ids the
   descriptors refer to. *)
let recover_plan recover src =
  match recover with
  | `Reload -> None
  | `Deopt -> Some (Spec_safety.Deopt.make_plan (Lower.compile src))

(* A cache directory that is not a directory, or cannot be created, is
   a usage error: name the flag and exit 2, as a bad --decay does.
   [cleanup] runs before the exit. *)
let cache_or_exit ?(cleanup = ignore) dir =
  let fail reason =
    cleanup ();
    Printf.eprintf "speccc: --cache-dir %s: %s\n" dir reason;
    exit 2
  in
  match Spec_fdo.Cache.create dir with
  | c -> c
  | exception Invalid_argument _ -> fail "not a directory"
  | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)

let open_cache dir = Option.map (fun d -> cache_or_exit d) dir

let report_cache cache =
  match cache with
  | Some c ->
    Printf.eprintf "cache: %s\n" (Spec_fdo.Cache.stats_to_string c)
  | None -> ()

(* ---- run ---- *)

let faults_arg =
  Arg.(value & opt (some string) None
       & info [ "faults" ] ~docv:"SPEC"
           ~doc:"misspeculation fault plan: comma-separated $(b,flush=K) \
                 (full ALAT flush every K time units), $(b,inv=PPM) \
                 (per-time-unit random entry invalidation), $(b,alat=N) \
                 (shrink the machine ALAT to N = 2, 4, 8, ... entries), \
                 $(b,adv=invert|drop:PPM|none) (adversarial speculation \
                 flags).  Deterministic for a given --stress-seed.")

let stress_seed_arg =
  Arg.(value & opt int 1
       & info [ "stress-seed" ] ~docv:"N"
           ~doc:"seed for the --faults random streams (default 1)")

let backend_arg =
  let backend_conv =
    let parse s =
      match Spec_machine.Machine.backend_of_string s with
      | Some b -> Ok b
      | None ->
        Error
          (`Msg (Printf.sprintf "unknown backend %S (expected inorder|ooo)" s))
    in
    let print ppf b =
      Format.pp_print_string ppf (Spec_machine.Machine.backend_name b)
    in
    Arg.conv (parse, print)
  in
  Arg.(value & opt backend_conv Spec_machine.Machine.Inorder
       & info [ "backend" ] ~docv:"CORE"
           ~doc:"machine core model: $(b,inorder) (the paper's in-order \
                 EPIC machine, default) or $(b,ooo) (out-of-order: \
                 ROB + LSQ with a memory-dependence predictor)")

(* the in-order core keeps the historical "machine" fault-stream scope;
   other backends get their own streams *)
let machine_scope backend =
  match backend with
  | Spec_machine.Machine.Inorder -> "machine"
  | b -> "machine-" ^ Spec_machine.Machine.backend_name b

let run_cmd =
  let machine =
    Arg.(value & flag & info [ "machine" ] ~doc:"run on the ITL machine \
                                                 simulator (with counters)")
  in
  let action file mode machine backend recover verify_each timings jobs
      faults stress_seed profile_in profile_out cache_dir threshold =
    set_jobs jobs;
    if machine && recover = `Deopt then begin
      Printf.eprintf
        "speccc: --recover deopt is not supported with --machine \
         (usage: speccc run --recover deopt FILE)\n";
      exit 2
    end;
    with_source file @@ fun src ->
    let plan =
      match faults with
      | None -> Spec_stress.Faults.null stress_seed
      | Some spec ->
        (match Spec_stress.Faults.parse ~seed:stress_seed spec with
         | Ok p -> p
         | Error msg ->
           Printf.eprintf "speccc: bad --faults spec: %s\n" msg;
           exit 2)
    in
    let perturb =
      Spec_spec.Flags.perturbation ~seed:stress_seed
        ~scope:[ Filename.basename file; "speccc" ]
        plan.Spec_stress.Faults.adversary
    in
    let cache = open_cache cache_dir in
    let ev = evidence ?profile_in ?profile_out src in
    let r =
      optimize_src ~verify_each ~deopt:(recover = `Deopt) ?perturb ?cache
        ?threshold ~ev src mode
    in
    let backend_end =
      if machine then Some (lower_scheduled r.Pipeline.prog) else None
    in
    if timings then
      prerr_string
        (Spec_driver.Passes.report_to_string
           (match backend_end with
            | Some (_, rows) -> with_rows r.Pipeline.report rows
            | None -> r.Pipeline.report));
    report_cache cache;
    (match perturb with
     | Some p ->
       Printf.eprintf "adversary-flips=%d\n" (Spec_spec.Flags.flipped p)
     | None -> ());
    (match backend_end with
     | Some (mp, _) ->
      let config =
        match plan.Spec_stress.Faults.alat_entries with
        | Some n ->
          { Spec_machine.Machine.default_config with
            Spec_machine.Machine.alat_entries = n }
        | None -> Spec_machine.Machine.default_config
      in
      let mf =
        Spec_stress.Faults.injector_opt plan
          ~scope:[ Filename.basename file; "speccc"; machine_scope backend ]
      in
      let m = Spec_machine.Machine.run_on backend ~config ?faults:mf mp in
      print_string m.Spec_machine.Machine.output;
      let p = m.Spec_machine.Machine.perf in
      Printf.eprintf
        "cycles=%d insns=%d loads=%d checks=%d check-misses=%d stores=%d\n"
        p.Spec_machine.Machine.cycles p.Spec_machine.Machine.insns
        (Spec_machine.Machine.loads_retired p)
        p.Spec_machine.Machine.checks p.Spec_machine.Machine.check_misses
        p.Spec_machine.Machine.stores;
      if backend <> Spec_machine.Machine.Inorder then
        Printf.eprintf
          "br-mispredicts=%d lsq-replays=%d mdp-poisons=%d\n"
          p.Spec_machine.Machine.br_mispredicts
          p.Spec_machine.Machine.lsq_replays
          p.Spec_machine.Machine.mdp_poisons;
      (match mf with
       | Some inj ->
         Printf.eprintf "alat-flushes=%d alat-invalidations=%d\n"
           (Spec_stress.Faults.flushes inj)
           (Spec_stress.Faults.invalidations inj)
       | None -> ())
     | None ->
      (* the vm keeps the historical "interp" fault-stream scope *)
      let fi =
        Spec_stress.Faults.injector_opt plan
          ~scope:[ Filename.basename file; "speccc"; "interp" ]
      in
      let out =
        Spec_prof.Vm.run_program ?faults:fi
          ?recover:(recover_plan recover src) (Lazy.force r.Pipeline.vm)
      in
      print_string out.Spec_prof.Interp.output;
      match fi with
      | Some inj ->
        let c = out.Spec_prof.Interp.counters in
        Printf.eprintf
          "check-reloads=%d deopts=%d alat-flushes=%d \
           alat-invalidations=%d\n"
          c.Spec_prof.Interp.check_reloads c.Spec_prof.Interp.deopts
          (Spec_stress.Faults.flushes inj)
          (Spec_stress.Faults.invalidations inj)
      | None -> ());
    0
  in
  Cmd.v (Cmd.info "run" ~doc:"compile, optimize and execute a program")
    Term.(const action $ src_arg $ mode_arg $ machine $ backend_arg
          $ recover_arg $ verify_arg $ timings_arg $ jobs_arg
          $ faults_arg $ stress_seed_arg $ profile_in_arg $ profile_out_arg
          $ cache_dir_arg $ threshold_arg)

(* ---- dump ---- *)

let dump_cmd =
  let phase =
    Arg.(value
         & opt (enum [ "ast", `Ast; "sir", `Sir; "chimu", `Chimu;
                       "ssa", `Ssa; "opt", `Opt; "itl", `Itl ])
             `Opt
         & info [ "phase"; "p" ] ~docv:"PHASE"
             ~doc:"ast, sir, chimu, ssa, opt (post-PRE), itl")
  in
  let action file mode phase safety jobs profile_in profile_out cache_dir
      threshold =
    set_jobs jobs;
    (match phase, safety with
     | (`Ast | `Sir | `Chimu | `Ssa), (`Report | `Strict) ->
       Printf.eprintf
         "speccc: --safety needs the optimized program (usage: speccc \
          dump --phase opt|itl --safety report|strict FILE)\n";
       exit 2
     | _ -> ());
    with_source file @@ fun src ->
    (* one training run (or store load) per invocation, and only for the
       phases that need evidence at all *)
    let ev = lazy (evidence ?profile_in ?profile_out src) in
    let cache = open_cache cache_dir in
    (match phase with
     | `Ast ->
       let ast = Parser.parse src in
       Printf.printf "(%d top-level declarations parsed)\n" (List.length ast)
     | `Sir ->
       let p = Lower.compile src in
       print_endline (Pp.prog_to_string p)
     | `Chimu ->
       let p = Lower.compile src in
       let _ = Spec_alias.Annotate.run p in
       print_endline (Pp.prog_to_string p)
     | `Ssa ->
       let p = Lower.compile src in
       let annot = Spec_alias.Annotate.run p in
       let mode' =
         match mode with
         | `Heuristic | `Aggressive -> Spec_spec.Flags.Heuristic_spec
         | `Profile ->
           Spec_spec.Flags.Profile_spec (Lazy.force ev).ev_prof
         | `None | `Base -> Spec_spec.Flags.Nonspec
       in
       Spec_spec.Flags.assign ?threshold p annot mode';
       Sir.iter_funcs
         (fun f -> ignore (Spec_cfg.Cfg_utils.split_critical_edges f : int))
         p;
       ignore (Spec_ssa.Build_ssa.build p);
       print_endline (Pp.prog_to_string p)
     | `Opt ->
       let r =
         optimize_src ~safety:(safety <> `Off) ?cache ?threshold
           ~ev:(Lazy.force ev) src mode
       in
       report_cache cache;
       handle_safety safety r;
       print_endline (Pp.prog_to_string r.Pipeline.prog)
     | `Itl ->
       let r =
         optimize_src ~safety:(safety <> `Off) ?cache ?threshold
           ~ev:(Lazy.force ev) src mode
       in
       report_cache cache;
       handle_safety safety r;
       let mp, _ = lower_scheduled r.Pipeline.prog in
       List.iter
         (fun name ->
           let f = Hashtbl.find mp.Spec_codegen.Itl.mp_funcs name in
           Fmt.pr "%a@." Spec_codegen.Itl.pp_mfunc f)
         mp.Spec_codegen.Itl.mp_order);
    0
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"print the IR after a compilation phase")
    Term.(const action $ src_arg $ mode_arg $ phase $ safety_arg
          $ jobs_arg $ profile_in_arg $ profile_out_arg $ cache_dir_arg
          $ threshold_arg)

(* ---- stats ---- *)

let stats_cmd =
  let action file backend safety recover verify_each timings jobs
      profile_in profile_out cache_dir threshold =
    set_jobs jobs;
    with_source file @@ fun src ->
    let ev = evidence ?profile_in ?profile_out src in
    let cache = open_cache cache_dir in
    let rplan = recover_plan recover src in
    let safety_reports = ref [] in
    Printf.printf "backend: %s\n" (Spec_machine.Machine.backend_name backend);
    Printf.printf "%-10s %10s %10s %8s %8s %8s %8s %10s\n" "variant"
      "cycles" "insns" "loads" "checks" "misses" "stores" "steps";
    let reports = ref [] in
    List.iter
      (fun mode ->
        let r =
          optimize_src ~verify_each ~deopt:(recover = `Deopt)
            ~safety:(safety <> `Off) ?cache ?threshold ~ev src mode
        in
        let name = Pipeline.variant_name r.Pipeline.variant in
        let mp, rows = lower_scheduled r.Pipeline.prog in
        reports := (name, with_rows r.Pipeline.report rows) :: !reports;
        (match r.Pipeline.safety with
         | Some rep -> safety_reports := (name, rep) :: !safety_reports
         | None -> ());
        let m = Spec_machine.Machine.run_on backend mp in
        (* the vm must reproduce the machine's output *)
        let i =
          Spec_prof.Vm.run_program ?recover:rplan (Lazy.force r.Pipeline.vm)
        in
        if i.Spec_prof.Interp.output <> m.Spec_machine.Machine.output
        then begin
          Printf.eprintf "speccc: %s: vm output diverged from the machine\n"
            name;
          exit 1
        end;
        let steps = i.Spec_prof.Interp.counters.Spec_prof.Interp.steps in
        let p = m.Spec_machine.Machine.perf in
        Printf.printf "%-10s %10d %10d %8d %8d %8d %8d %10d\n" name
          p.Spec_machine.Machine.cycles p.Spec_machine.Machine.insns
          (Spec_machine.Machine.loads_retired p)
          p.Spec_machine.Machine.checks p.Spec_machine.Machine.check_misses
          p.Spec_machine.Machine.stores steps)
      [ `None; `Base; `Profile; `Heuristic; `Aggressive ];
    report_cache cache;
    (match safety with
     | `Off -> ()
     | `Report | `Strict ->
       List.iter
         (fun (name, rep) ->
           Printf.printf "\n-- safety: %s --\n%s" name
             (Spec_safety.Spectct.to_string rep))
         (List.rev !safety_reports);
       if safety = `Strict
          && List.exists
               (fun (_, rep) -> not (Spec_safety.Spectct.strict_ok rep))
               !safety_reports
       then begin
         Printf.eprintf
           "speccc: --safety strict: confirmed speculative-taint sites \
            (see reports above)\n";
         exit 1
       end);
    if timings then
      List.iter
        (fun (name, report) ->
          Printf.printf "\n-- %s pass timings --\n%s" name
            (Spec_driver.Passes.report_to_string report))
        (List.rev !reports);
    0
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"machine counters for every pipeline variant")
    Term.(const action $ src_arg $ backend_arg $ safety_arg
          $ recover_arg $ verify_arg $ timings_arg $ jobs_arg
          $ profile_in_arg $ profile_out_arg $ cache_dir_arg
          $ threshold_arg)

(* ---- profile ---- *)

let out_arg =
  Arg.(required & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE" ~doc:"output store (*.sprof)")

let profile_record_cmd =
  let action file out =
    with_source file @@ fun src ->
    let prog, prof, _ = Pipeline.train src in
    let store = Spec_fdo.Store.of_profile prog prof in
    Spec_fdo.Store.save out store;
    Printf.printf "%s\ndigest %s\n" (Spec_fdo.Store.summary store)
      (Spec_fdo.Store.digest store);
    0
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"run the training interpreter once and persist the profile")
    Term.(const action $ src_arg $ out_arg)

let profile_merge_cmd =
  let stores_arg =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"STORE"
           ~doc:"profile stores (*.sprof), oldest first")
  in
  let decay_arg =
    Arg.(value & opt (some float) None
         & info [ "decay" ] ~docv:"LAMBDA"
             ~doc:"exponential decay in [0,1]: down-weight the \
                   accumulated evidence by LAMBDA before each younger \
                   store is merged in")
  in
  let action out decay paths =
    let stores = List.map load_store paths in
    let merged =
      match stores with
      | [] -> assert false
      | first :: rest ->
        List.fold_left
          (fun acc s ->
            let acc =
              match decay with
              | Some lambda -> Spec_fdo.Store.decay ~lambda acc
              | None -> acc
            in
            Spec_fdo.Store.merge acc s)
          first rest
    in
    Spec_fdo.Store.save out merged;
    Printf.printf "%s\ndigest %s\n" (Spec_fdo.Store.summary merged)
      (Spec_fdo.Store.digest merged);
    0
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:"merge profile stores (commutative unless --decay is given)")
    Term.(const action $ out_arg $ decay_arg $ stores_arg)

let store_pos_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"STORE"
         ~doc:"profile store (*.sprof)")

let profile_show_cmd =
  let action path =
    let store = load_store path in
    Printf.printf "%s\ndigest %s\n" (Spec_fdo.Store.summary store)
      (Spec_fdo.Store.digest store);
    0
  in
  Cmd.v (Cmd.info "show" ~doc:"summarize a profile store")
    Term.(const action $ store_pos_arg)

let profile_stale_check_cmd =
  let src_pos1 =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"FILE"
           ~doc:"mini-C source to match the store against")
  in
  let action store_path file =
    let store = load_store store_path in
    with_source file @@ fun src ->
    let prog = Lower.compile src in
    let _, mr = Spec_fdo.Store.bind store prog in
    print_endline (Spec_fdo.Store.report_to_string mr);
    Printf.printf "match-rate %.4f\n" (Spec_fdo.Store.match_rate mr);
    0
  in
  Cmd.v
    (Cmd.info "stale-check"
       ~doc:"report how much of a store still matches a (possibly \
             edited) source; unmatched sites forgo speculation")
    Term.(const action $ store_pos_arg $ src_pos1)

let profile_cmd =
  Cmd.group
    (Cmd.info "profile"
       ~doc:"record, merge, inspect and stale-check persistent profile \
             stores")
    [ profile_record_cmd; profile_merge_cmd; profile_show_cmd;
      profile_stale_check_cmd ]

(* ---- serve / client: the compile service ---- *)

module Service = Spec_service

let socket_arg =
  Arg.(value & opt string "speccc.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"unix-domain socket the daemon listens on (default \
                 speccc.sock)")

let serve_cmd =
  let cache_dir =
    Arg.(value & opt string ".speccc-cache"
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"content-addressed compile cache backing the daemon; \
                   warm requests skip every optimization pass")
  in
  let max_entries =
    Arg.(value & opt (some int) None
         & info [ "max-entries" ] ~docv:"N"
             ~doc:"LRU cap on cached artifacts (default unbounded)")
  in
  let decay =
    Arg.(value & opt float 1.0
         & info [ "decay" ] ~docv:"L"
             ~doc:"down-weight a unit's accumulated evidence by L before \
                   merging each reported profile (exponential decay; 1.0, \
                   the default, is the plain commutative merge, so report \
                   order cannot matter)")
  in
  let drift =
    Arg.(value & opt float 0.25
         & info [ "drift-threshold" ] ~docv:"X"
             ~doc:"recompile a unit in the background (and atomically \
                   swap its artifact) when its accumulated evidence \
                   drifts more than X from the snapshot its current \
                   artifact was compiled against (0..1)")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose" ] ~doc:"log every request to stderr")
  in
  let action socket cache_dir max_entries decay drift verbose jobs =
    set_jobs jobs;
    if decay < 0. || decay > 1. then begin
      Printf.eprintf "speccc: --decay must be in [0, 1]\n";
      exit 2
    end;
    (match max_entries with
     | Some n when n < 1 ->
       Printf.eprintf "speccc: --max-entries must be at least 1\n";
       exit 2
     | _ -> ());
    (* the socket is bound before the cache directory is created, so
       a refused socket path creates nothing, and a refused cache
       directory closes the socket and removes its file *)
    let listener =
      match Service.Server.listen socket with
      | Ok l -> l
      | Error reason ->
        Printf.eprintf "speccc: --socket %s: %s\n" socket reason;
        exit 2
    in
    ignore
      (cache_or_exit
         ~cleanup:(fun () -> Service.Server.close listener)
         cache_dir
        : Spec_fdo.Cache.t);
    let cfg =
      { Service.Daemon.sv_cache_dir = cache_dir;
        sv_max_entries = max_entries; sv_lambda = decay; sv_drift = drift;
        sv_verbose = verbose }
    in
    Service.Server.serve cfg listener;
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"run the compile service: answer compile requests from the \
             cache (cold misses run the pipeline on the domain pool, \
             deduplicated through a single-flight registry that \
             persists across wakeups), merge reported profiles online \
             with decay, and recompile units in the background when \
             their evidence drifts")
    Term.(const action $ socket_arg $ cache_dir $ max_entries $ decay
          $ drift $ verbose $ jobs_arg)

let client_rpc socket req =
  match Service.Client.with_client socket (fun c -> Service.Client.rpc c req) with
  | Ok (Ok resp) -> resp
  | Ok (Error msg) | Error msg ->
    Printf.eprintf "speccc: %s\n" msg;
    exit 1

let client_fail msg =
  Printf.eprintf "speccc: daemon error: %s\n" msg;
  exit 1

let mode_string = function
  | `None -> "none"
  | `Base -> "base"
  | `Profile -> "profile"
  | `Heuristic -> "heuristic"
  | `Aggressive -> "aggressive"

let client_compile_cmd =
  let unit_arg =
    Arg.(value & opt (some string) None
         & info [ "unit" ] ~docv:"NAME"
             ~doc:"compilation-unit name the daemon keys profile \
                   evidence by (default: the source file's basename)")
  in
  let exec_arg =
    Arg.(value & flag
         & info [ "exec" ]
             ~doc:"also execute on the daemon's vm engine and print the \
                   program output instead of the optimized program")
  in
  let rounds_arg =
    Arg.(value & opt int 3
         & info [ "rounds" ] ~docv:"N" ~doc:"promotion rounds (default 3)")
  in
  let action socket file unit_name mode exec rounds =
    let src = read_file file in
    let unit_name =
      match unit_name with Some u -> u | None -> Filename.basename file
    in
    let req =
      Service.Proto.Compile
        { Service.Proto.cq_unit = unit_name; cq_mode = mode_string mode;
          cq_rounds = rounds; cq_strength = true; cq_exec = exec;
          cq_src = src }
    in
    (match client_rpc socket req with
     | Service.Proto.Compiled r ->
       Printf.eprintf "served: %s key=%s digest=%s match=%.4f\n"
         (match r.Service.Proto.cr_served with
          | Service.Proto.Cold -> "cold"
          | Service.Proto.Warm -> "warm"
          | Service.Proto.Joined -> "joined"
          | Service.Proto.Parked -> "parked")
         r.Service.Proto.cr_key r.Service.Proto.cr_digest
         (float_of_int r.Service.Proto.cr_match_ppm /. 1e6);
       if exec then print_string r.Service.Proto.cr_output
       else print_string r.Service.Proto.cr_prog
     | Service.Proto.Error m -> client_fail m
     | _ -> client_fail "unexpected reply");
    0
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"request a compile from the daemon; prints the optimized \
             program (or, with --exec, its vm output) on stdout and the \
             served status (cold/warm/joined/parked + cache key) on \
             stderr")
    Term.(const action $ socket_arg $ src_arg $ unit_arg $ mode_arg
          $ exec_arg $ rounds_arg)

let client_report_cmd =
  let unit_pos =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"UNIT"
           ~doc:"compilation-unit name")
  in
  let store_pos =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"STORE"
           ~doc:"profile store (*.sprof) to report")
  in
  let weight_arg =
    Arg.(value & opt float 1.0
         & info [ "weight" ] ~docv:"W"
             ~doc:"weight of this evidence at merge (default 1.0)")
  in
  let action socket unit_name store_path weight =
    let store_text = read_file store_path in
    let req =
      Service.Proto.Report_profile
        { rq_unit = unit_name; rq_weight = weight; rq_store = store_text }
    in
    (match client_rpc socket req with
     | Service.Proto.Profiled r ->
       Printf.printf "runs %d\ndigest %s\ndrift %.4f\nrecompiled %s\n"
         r.Service.Proto.rr_runs r.Service.Proto.rr_digest
         r.Service.Proto.rr_drift
         (if r.Service.Proto.rr_recompiled then "yes" else "no")
     | Service.Proto.Error m -> client_fail m
     | _ -> client_fail "unexpected reply");
    0
  in
  Cmd.v
    (Cmd.info "report-profile"
       ~doc:"report profile evidence for a unit; the daemon merges it \
             into the unit's store (with the serve-side decay) and \
             recompiles in the background when the evidence drifts past \
             the threshold")
    Term.(const action $ socket_arg $ unit_pos $ store_pos $ weight_arg)

let client_stats_cmd =
  let action socket =
    (match client_rpc socket Service.Proto.Stats with
     | Service.Proto.Stats_reply kvs ->
       List.iter (fun (k, v) -> Printf.printf "%s %d\n" k v) kvs
     | Service.Proto.Error m -> client_fail m
     | _ -> client_fail "unexpected reply");
    0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"print the service's request, cache and FDO counters, one \
             name-value row each")
    Term.(const action $ socket_arg)

let client_shutdown_cmd =
  let action socket =
    (match client_rpc socket Service.Proto.Shutdown with
     | Service.Proto.Bye -> print_endline "bye"
     | Service.Proto.Error m -> client_fail m
     | _ -> client_fail "unexpected reply");
    0
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"ask the daemon to shut down cleanly")
    Term.(const action $ socket_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:"talk to a running speccc serve daemon over its unix socket")
    [ client_compile_cmd; client_report_cmd; client_stats_cmd;
      client_shutdown_cmd ]

let main_cmd =
  Cmd.group
    (Cmd.info "speccc" ~version:"1.0"
       ~doc:"speculative-SSAPRE compiler for the mini-C language \
             (PLDI 2003 reproduction)")
    [ run_cmd; dump_cmd; stats_cmd; profile_cmd; serve_cmd; client_cmd ]

let () = exit (Cmd.eval' main_cmd)

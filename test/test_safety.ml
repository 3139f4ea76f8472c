(* Tests for the speculative-safety subsystem.

   The crypto workload family pins the checker's contract: the leaky
   cipher kernel must produce a CONFIRMED speculative-taint report at a
   stable site key (golden below), the constant-time selection kernel
   must come out clean *while still speculating*, and secret-free
   programs stay unannotated.  On top of the verdicts: strict mode,
   deopt-based recovery (the oracle's output and pinned vm counters
   under forced interference, the step refund included), and
   preservation of deopt descriptors across the compile-cache artifact
   round trip. *)

open Spec_ir
open Spec_driver
open Spec_safety

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_strl = Alcotest.(check (list string))

let workload name =
  List.find
    (fun w -> w.Spec_workloads.Workloads.name = name)
    Spec_workloads.Workloads.all

let train_src name = Spec_workloads.Workloads.train_source (workload name)

(* one deopt-capable checked build per (workload, variant), memoized —
   several tests below interrogate the same compile *)
let builds : (string * string, Pipeline.result) Hashtbl.t = Hashtbl.create 8

let build name vname =
  match Hashtbl.find_opt builds (name, vname) with
  | Some r -> r
  | None ->
    let src = train_src name in
    let variant =
      match vname with
      | "heuristic" -> Pipeline.Spec_heuristic
      | "profile" -> Pipeline.Spec_profile (Pipeline.profile_of_source src)
      | "aggressive" -> Pipeline.Aggressive
      | v -> failwith ("unknown variant " ^ v)
    in
    let r =
      match variant with
      | Pipeline.Spec_profile p ->
        Pipeline.compile_and_optimize ~edge_profile:(Some p) ~deopt:true
          ~safety:true src variant
      | _ ->
        Pipeline.compile_and_optimize ~deopt:true ~safety:true src variant
    in
    Hashtbl.replace builds (name, vname) r;
    r

let report r =
  match r.Pipeline.safety with
  | Some rep -> rep
  | None -> Alcotest.fail "compile with ~safety:true carried no report"

(* ---- checker verdicts on the crypto family (goldens) ---- *)

(* the stable site key of the cipher's secret-dependent speculative
   load: function name, report kind, deversioned address expression,
   ordinal — deliberately free of statement/site/SSA ids so it survives
   pipeline changes (see Spectct) *)
let cipher_site = "CONFIRMED spec-addr round:spec-addr:(sbox + (idx * 8))#0"

let test_cipher_leaks () =
  List.iter
    (fun vname ->
      let rep = report (build "cipher" vname) in
      check_str (vname ^ " verdict") "leaks"
        (Taint.verdict_str rep.Taint.rp_verdict);
      check_int (vname ^ " confirmed") 1 rep.Taint.rp_confirmed;
      check_int (vname ^ " plausible") 0 rep.Taint.rp_plausible;
      check_strl (vname ^ " site lines") [ cipher_site ]
        (Spectct.site_lines rep);
      check_bool (vname ^ " strict mode fails") false (Spectct.strict_ok rep))
    [ "heuristic"; "profile"; "aggressive" ]

let test_ctsel_safe () =
  List.iter
    (fun vname ->
      let r = build "ctsel" vname in
      let rep = report r in
      check_str (vname ^ " verdict") "safe"
        (Taint.verdict_str rep.Taint.rp_verdict);
      check_strl (vname ^ " no sites") [] (Spectct.site_lines rep);
      check_bool (vname ^ " strict mode passes") true (Spectct.strict_ok rep);
      (* clean must not mean trivial: the constant-time build still
         carries data speculation for the checker to reason about *)
      if vname <> "aggressive" then begin
        let run = Spec_prof.Vm.run r.Pipeline.prog in
        check_bool (vname ^ " really speculates") true
          (run.Spec_prof.Interp.counters.Spec_prof.Interp.check_stmts > 0)
      end)
    [ "heuristic"; "profile" ]

let test_secret_free_unannotated () =
  (* no [secret] contract anywhere: the checker must refuse to claim
     anything either way *)
  let rep = report (build "gzip" "heuristic") in
  check_str "verdict" "unannotated" (Taint.verdict_str rep.Taint.rp_verdict);
  check_int "confirmed" 0 rep.Taint.rp_confirmed;
  check_bool "strict mode passes" true (Spectct.strict_ok rep)

(* ---- deopt-based recovery ---- *)

let fault_plan spec =
  match Spec_stress.Faults.parse ~seed:3 spec with
  | Ok p -> p
  | Error m -> failwith m

(* the vm's counters for the run below, recorded while the pre-compiled
   tree engine still ran beside it and matched them counter for counter
   (steps included, via the vm's step refund) *)
let cipher_deopt_counters =
  { Spec_prof.Interp.steps = 3871; mem_loads = 1128; mem_stores = 531;
    branches = 538; calls = 344; check_stmts = 14; check_reloads = 0;
    deopts = 3 }

let test_deopt_recovery_pinned () =
  (* under forced periodic flushes the cipher build must deoptimize (its
     descriptors survive the pipeline), the vm must reproduce the pinned
     counters, and the output must stay byte-identical to the
     unoptimized oracle *)
  let src = train_src "cipher" in
  let r = build "cipher" "heuristic" in
  let dplan = Deopt.make_plan (Lower.compile src) in
  let expected =
    (Spec_prof.Interp_ref.run (Lower.compile src)).Spec_prof.Interp_ref.output
  in
  let vm =
    Spec_prof.Vm.run
      ~faults:
        (Spec_stress.Faults.injector (fault_plan "flush=16")
           ~scope:[ "test-safety"; "cipher"; "deopt" ])
      ~recover:dplan r.Pipeline.prog
  in
  check_str "vm output is the oracle's" expected vm.Spec_prof.Interp.output;
  check_bool "pinned counters" true
    (vm.Spec_prof.Interp.counters = cipher_deopt_counters)

let test_recover_vs_reload_outputs () =
  (* recovery policy must never be observable in the output, only in
     the counters *)
  let src = train_src "cipher" in
  let r = build "cipher" "heuristic" in
  let dplan = Deopt.make_plan (Lower.compile src) in
  let inj leg =
    Spec_stress.Faults.injector (fault_plan "flush=16")
      ~scope:[ "test-safety"; "cipher"; leg ]
  in
  let reload = Spec_prof.Vm.run ~faults:(inj "cmp") r.Pipeline.prog in
  let deo =
    Spec_prof.Vm.run ~faults:(inj "cmp") ~recover:dplan r.Pipeline.prog
  in
  check_str "same output under either policy"
    reload.Spec_prof.Interp.output deo.Spec_prof.Interp.output;
  check_bool "reload leg reloads" true
    (reload.Spec_prof.Interp.counters.Spec_prof.Interp.check_reloads > 0);
  check_bool "deopt leg deopts" true
    (deo.Spec_prof.Interp.counters.Spec_prof.Interp.deopts > 0)

(* ---- deopt descriptors across the compile-cache artifact ---- *)

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "specsafety-test-%d-%s" (Unix.getpid ()) tag)
  in
  (match Sys.readdir dir with
   | files -> Array.iter (fun f -> Sys.remove (Filename.concat dir f)) files
   | exception Sys_error _ -> ());
  dir

let vm_deopt_entries (p : Spec_prof.Vmcode.program) =
  Array.fold_left
    (fun acc (f : Spec_prof.Vmcode.func) ->
      acc + Hashtbl.length f.Spec_prof.Vmcode.vdeopt)
    0 p.Spec_prof.Vmcode.vfuncs

let test_artifact_preserves_deopt () =
  let src = train_src "cipher" in
  let c = Spec_fdo.Cache.create (fresh_dir "deopt") in
  let compile () =
    Pipeline.compile_and_optimize ~deopt:true ~safety:true ~cache:c src
      Pipeline.Spec_heuristic
  in
  let cold = compile () in
  let warm = compile () in
  check_bool "warm compile is from cache" true warm.Pipeline.from_cache;
  let d_cold = Deopt.count cold.Pipeline.prog in
  check_bool "cold build carries descriptors" true (d_cold > 0);
  check_int "descriptors survive the artifact" d_cold
    (Deopt.count warm.Pipeline.prog);
  (* the bytecode lowered from the cached program must carry them too,
     refunds included: a warm vm run under forced faults must replay
     the cold one exactly *)
  check_int "vm descriptor tables survive the artifact"
    (vm_deopt_entries (Lazy.force cold.Pipeline.vm))
    (vm_deopt_entries (Lazy.force warm.Pipeline.vm));
  let dplan = Deopt.make_plan (Lower.compile src) in
  let inj () =
    Spec_stress.Faults.injector (fault_plan "flush=16")
      ~scope:[ "test-safety"; "artifact"; "deopt" ]
  in
  let run r =
    Spec_prof.Vm.run_program ~faults:(inj ()) ~recover:dplan
      (Lazy.force r.Pipeline.vm)
  in
  let rc = run cold and rw = run warm in
  check_str "warm vm output identical" rc.Spec_prof.Interp.output
    rw.Spec_prof.Interp.output;
  check_bool "warm vm counters identical" true
    (rw.Spec_prof.Interp.counters = rc.Spec_prof.Interp.counters);
  check_bool "warm vm run deopted" true
    (rw.Spec_prof.Interp.counters.Spec_prof.Interp.deopts > 0)

let suite =
  [ Alcotest.test_case "cipher leaks (golden site key)" `Quick
      test_cipher_leaks;
    Alcotest.test_case "ctsel constant-time is safe" `Quick test_ctsel_safe;
    Alcotest.test_case "secret-free programs stay unannotated" `Quick
      test_secret_free_unannotated;
    Alcotest.test_case "deopt: pinned counters, oracle output" `Quick
      test_deopt_recovery_pinned;
    Alcotest.test_case "recovery policy invisible in output" `Quick
      test_recover_vs_reload_outputs;
    Alcotest.test_case "artifact preserves deopt descriptors" `Quick
      test_artifact_preserves_deopt ]

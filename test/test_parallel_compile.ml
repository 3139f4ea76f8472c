(* Determinism of the parallel per-function pipeline: compiling at
   --jobs N must be observationally identical to --jobs 1 — the
   optimized program prints byte-identically and the pass report's
   jobs-invariant core (pass order, run/touched counts, counters,
   analysis-cache tallies) matches exactly.  Only wall times may differ.

   The fused segments fan per-function tasks out to the Parpool global
   pool and join in function order, so these tests drive the real
   pipeline entry points at different pool sizes; --jobs 1 runs the same
   task/commit machinery inline, which is what makes the equivalence
   hold by construction — and what this file pins against regression. *)

open Spec_ir
open Spec_driver
open Spec_workloads

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Run [f] with the global pool at [n] domains, restoring the previous
   size afterwards (other suites share the pool). *)
let with_jobs n f =
  let prev = Parpool.get_jobs () in
  Parpool.set_jobs n;
  Fun.protect ~finally:(fun () -> Parpool.set_jobs prev) f

(* The jobs-invariant core of a pass report: everything except wall
   times.  Counter lists are order-stable (merged in function order),
   but sort anyway so the signature only pins content. *)
let stats_signature (r : Passes.report) =
  let pass ps =
    Printf.sprintf "%s runs=%d touched=%d [%s]" ps.Passes.ps_pass
      ps.Passes.ps_runs ps.Passes.ps_touched
      (String.concat ","
         (List.map
            (fun (k, v) -> Printf.sprintf "%s=%d" k v)
            (List.sort compare ps.Passes.ps_counters)))
  in
  let c = r.Passes.rp_counters in
  Printf.sprintf "%s | steens=%d modref=%d annot=%d dom=%d pt-hits=%d \
                  annot-hits=%d dom-hits=%d | verified=%d"
    (String.concat "; " (List.map pass r.Passes.rp_passes))
    c.Passes.steensgaard_runs c.Passes.modref_runs c.Passes.annot_runs
    c.Passes.dom_runs c.Passes.points_to_hits c.Passes.annot_hits
    c.Passes.dom_hits r.Passes.rp_verified

let compile ?(verify_each = false) ?edge_profile src variant =
  let prog = Lower.compile src in
  Pipeline.optimize ~verify_each ~edge_profile prog variant

(* One (workload, variant) comparison: program text and stats signature
   at --jobs 1 versus --jobs 4. *)
let check_variant ?(verify_each = false) ?edge_profile ~wname ~vname src
    variant =
  let seq = with_jobs 1 (fun () -> compile ~verify_each ?edge_profile src variant) in
  let par = with_jobs 4 (fun () -> compile ~verify_each ?edge_profile src variant) in
  check_str
    (Printf.sprintf "%s/%s: program byte-identical at --jobs 4" wname vname)
    (Pp.prog_to_string seq.Pipeline.prog)
    (Pp.prog_to_string par.Pipeline.prog);
  check_str
    (Printf.sprintf "%s/%s: pass stats identical at --jobs 4" wname vname)
    (stats_signature seq.Pipeline.report)
    (stats_signature par.Pipeline.report)

(* ------------------------------------------------------------------ *)
(* All workloads x profile-free variants                               *)
(* ------------------------------------------------------------------ *)

let test_all_workloads_profile_free () =
  List.iter
    (fun w ->
      let src = Workloads.train_source w in
      List.iter
        (fun (vname, variant) ->
          check_variant ~wname:w.Workloads.name ~vname src variant)
        [ "base", Pipeline.Base;
          "heuristic", Pipeline.Spec_heuristic;
          "aggressive", Pipeline.Aggressive ])
    Workloads.all

(* ------------------------------------------------------------------ *)
(* Profile-fed variant (control + data speculation enabled)            *)
(* ------------------------------------------------------------------ *)

let test_profile_variant () =
  List.iter
    (fun name ->
      let w = Workloads.find name in
      let src = Workloads.train_source w in
      let profile = Pipeline.profile_of_source src in
      check_variant ~wname:name ~vname:"profile" ~edge_profile:profile src
        (Pipeline.Spec_profile profile))
    [ "equake"; "gzip" ]

(* ------------------------------------------------------------------ *)
(* Many-function units                                                 *)
(* ------------------------------------------------------------------ *)

(* 6-copy units ({!Experiments.compile_unit}) give each per-function
   segment dozens of tasks to fan out, where a single kernel gives a
   handful *)
let test_compile_units () =
  List.iter
    (fun name ->
      let src =
        Experiments.compile_unit ~copies:6
          (Workloads.train_source (Workloads.find name))
      in
      check_variant ~wname:(name ^ "x6") ~vname:"heuristic" src
        Pipeline.Spec_heuristic)
    [ "equake"; "vpr" ]

(* ------------------------------------------------------------------ *)
(* --verify-each: inter-task verification must be jobs-independent     *)
(* ------------------------------------------------------------------ *)

let test_verify_each_parallel () =
  List.iter
    (fun name ->
      let w = Workloads.find name in
      let src = Workloads.train_source w in
      check_variant ~verify_each:true ~wname:name ~vname:"heuristic+verify"
        src Pipeline.Spec_heuristic)
    [ "equake"; "parser"; "twolf" ]

(* ------------------------------------------------------------------ *)
(* FDO compile cache: keys must not depend on --jobs                   *)
(* ------------------------------------------------------------------ *)

let rm_rf dir =
  (match Sys.readdir dir with
   | files ->
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       files
   | exception Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

(* A cold compile at --jobs 4 populates the cache; a compile of the same
   source at --jobs 1 must hit it (and vice versa), because the cache
   key captures what determines the output and the output is
   jobs-invariant. *)
let test_cache_key_jobs_independent () =
  let src = Workloads.train_source (Workloads.find "mcf") in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "speccc-parcache-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let cache = Spec_fdo.Cache.create dir in
  let compile () =
    Pipeline.compile_and_optimize ~cache src Pipeline.Spec_heuristic
  in
  let cold = with_jobs 4 (fun () -> compile ()) in
  check_bool "cold parallel compile missed" false cold.Pipeline.from_cache;
  let warm = with_jobs 1 (fun () -> compile ()) in
  check_bool "sequential compile hit the parallel artifact" true
    warm.Pipeline.from_cache;
  check_str "cached program identical to the parallel compile"
    (Pp.prog_to_string cold.Pipeline.prog)
    (Pp.prog_to_string warm.Pipeline.prog);
  let st = Spec_fdo.Cache.stats cache in
  check_int "exactly one miss" 1 st.Spec_fdo.Cache.misses;
  check_int "exactly one hit" 1 st.Spec_fdo.Cache.hits;
  rm_rf dir

let suite =
  [ Alcotest.test_case "all workloads x {base,heuristic,aggressive}: \
                        --jobs 4 == --jobs 1"
      `Slow test_all_workloads_profile_free;
    Alcotest.test_case "profile variant: --jobs 4 == --jobs 1" `Slow
      test_profile_variant;
    Alcotest.test_case "--verify-each under --jobs 4" `Slow
      test_verify_each_parallel;
    Alcotest.test_case "compile-cache keys are jobs-independent" `Quick
      test_cache_key_jobs_independent;
    Alcotest.test_case "6-copy units x heuristic: --jobs 4 == --jobs 1"
      `Slow test_compile_units ]

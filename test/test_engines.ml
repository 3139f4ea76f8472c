(* Differential suite for the execution engines.

   The fast engines (the {!Vm} threaded-code bytecode engine and the
   resolved {!Machine} simulator) must be observationally identical to
   the seed's tree-walking semantics:

   - [Vm] vs [Interp_ref] (the frozen seed-semantics oracle): for every
     workload under every pipeline variant, program output, return value
     and every counter (steps, mem_loads, mem_stores, branches, calls,
     check_stmts, check_reloads) must agree exactly.

   - The compile-cache artifact carries the optimized program only: a
     warm hit lowers its bytecode on first use, and that bytecode is
     the cold compile's, field by field, on every kernel and variant.

   - [Machine]: every perf counter plus the program's return value must
     match the goldens below, which were captured from the seed
     simulator (pre-overhaul machine.ml) on the train inputs.

   - The parallel harness must be deterministic: rendered table rows
     from a [--jobs 4] sweep are byte-identical to the sequential run,
     and [Parpool] preserves submission order, nests, and propagates
     exceptions. *)

open Spec_ir
open Spec_prof
open Spec_driver

let find = Spec_workloads.Workloads.find
let wname w = w.Spec_workloads.Workloads.name

(* ------------------------------------------------------------------ *)
(* Parpool units                                                       *)
(* ------------------------------------------------------------------ *)

let with_jobs n f =
  Parpool.set_jobs n;
  Fun.protect ~finally:(fun () -> Parpool.set_jobs 1) f

let pool_order () =
  Alcotest.(check int) "inline by default" 1 (Parpool.get_jobs ());
  with_jobs 4 (fun () ->
      Alcotest.(check int) "jobs set" 4 (Parpool.get_jobs ());
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int)) "submission order preserved"
        (List.map (fun x -> x * x) xs)
        (Parpool.parmap (fun x -> x * x) xs);
      (* nested fan-out: a task awaiting subtasks must help, not deadlock *)
      let nested =
        Parpool.parmap
          (fun i ->
            List.fold_left ( + ) 0
              (Parpool.parmap (fun j -> i * j) (List.init 10 Fun.id)))
          xs
      in
      Alcotest.(check (list int)) "nested map" (List.map (fun i -> i * 45) xs)
        nested)

let pool_exn () =
  with_jobs 2 (fun () ->
      match Parpool.parmap (fun x -> if x = 3 then failwith "boom" else x)
              (List.init 8 Fun.id)
      with
      | _ -> Alcotest.fail "expected the task's exception to propagate"
      | exception Failure m -> Alcotest.(check string) "exn payload" "boom" m)

(* ------------------------------------------------------------------ *)
(* Vm vs Interp_ref differential                                       *)
(* ------------------------------------------------------------------ *)

let variants profile =
  [ "noopt", Pipeline.Noopt; "base", Pipeline.Base;
    "profile", Pipeline.Spec_profile profile;
    "heuristic", Pipeline.Spec_heuristic;
    "aggressive", Pipeline.Aggressive ]

(* compare the vm's result against the Interp_ref oracle *)
let check_vs_oracle ctx (a : Interp.result) (b : Interp_ref.result) =
  Alcotest.(check string) (ctx ^ ": output") b.Interp_ref.output
    a.Interp.output;
  (match a.Interp.ret, b.Interp_ref.ret with
   | Interp.Vint x, Interp_ref.Vint y ->
     Alcotest.(check int) (ctx ^ ": ret") y x
   | Interp.Vflt x, Interp_ref.Vflt y ->
     Alcotest.(check bool) (ctx ^ ": float ret") true (compare x y = 0)
   | _ -> Alcotest.fail (ctx ^ ": return-value kind mismatch"));
  let ca = a.Interp.counters and cb = b.Interp_ref.counters in
  List.iter
    (fun (n, got, want) ->
      Alcotest.(check int) (Printf.sprintf "%s: %s" ctx n) want got)
    [ "steps", ca.Interp.steps, cb.Interp_ref.steps;
      "mem_loads", ca.Interp.mem_loads, cb.Interp_ref.mem_loads;
      "mem_stores", ca.Interp.mem_stores, cb.Interp_ref.mem_stores;
      "branches", ca.Interp.branches, cb.Interp_ref.branches;
      "calls", ca.Interp.calls, cb.Interp_ref.calls;
      "check_stmts", ca.Interp.check_stmts, cb.Interp_ref.check_stmts;
      "check_reloads", ca.Interp.check_reloads, cb.Interp_ref.check_reloads ]

let diff_workload w () =
  let train_prog = Lower.compile (Spec_workloads.Workloads.train_source w) in
  let profile, _ = Profiler.profile train_prog in
  List.iter
    (fun (vname, v) ->
      let prog = Lower.compile (Spec_workloads.Workloads.train_source w) in
      let r = Pipeline.optimize ~edge_profile:(Some profile) prog v in
      check_vs_oracle (wname w ^ "/" ^ vname ^ "/vm") (Vm.run r.Pipeline.prog)
        (Interp_ref.run r.Pipeline.prog))
    (variants profile)

(* ------------------------------------------------------------------ *)
(* Machine goldens (captured from the seed simulator, train inputs)    *)
(* ------------------------------------------------------------------ *)

(* (insns, cycles, data_cycles, loads_plain, loads_adv, loads_spec,
    checks, check_misses, stores, branches, rse_stall_cycles,
    max_stacked_regs, ret_int) *)
let machine_goldens = [
  ("art", "noopt", (244128, 299132, 111876, 37348, 0, 0, 0, 0, 11406, 20063, 28, 101, 0));
  ("art", "base", (155829, 247360, 98421, 24221, 0, 0, 0, 0, 11406, 20063, 0, 80, 0));
  ("art", "profile", (155829, 228185, 98426, 14621, 4800, 0, 4800, 0, 11406, 20063, 0, 79, 0));
  ("art", "heuristic", (155829, 232455, 83516, 9701, 4920, 0, 9600, 4800, 11406, 20063, 0, 79, 0));
  ("art", "aggressive", (136629, 222855, 83036, 9701, 4920, 0, 0, 0, 11406, 20063, 0, 79, 0));
  ("ammp", "noopt", (249962, 297496, 103064, 38682, 0, 0, 0, 0, 10090, 14063, 334, 149, 0));
  ("ammp", "base", (167249, 254739, 89577, 29073, 0, 3, 0, 0, 10090, 14063, 124, 113, 0));
  ("ammp", "profile", (169409, 255837, 92457, 20433, 0, 1083, 8640, 2, 10090, 14063, 142, 116, 0));
  ("ammp", "heuristic", (183089, 212711, 31017, 11793, 0, 2163, 23040, 14400, 10090, 14063, 172, 121, 0));
  ("ammp", "aggressive", (137009, 169494, 31032, 11793, 0, 2163, 0, 0, 10090, 14063, 124, 113, 0));
  ("equake", "noopt", (91992, 97395, 24222, 13011, 0, 0, 0, 0, 4455, 4765, 714, 251, 0));
  ("equake", "base", (72875, 84019, 23245, 11560, 0, 0, 0, 0, 4455, 4765, 452, 192, 0));
  ("equake", "profile", (76475, 77195, 21090, 6520, 1440, 360, 5040, 3, 4455, 4765, 464, 192, 0));
  ("equake", "heuristic", (76475, 77195, 21090, 6520, 1440, 360, 5040, 3, 4455, 4765, 464, 192, 0));
  ("equake", "aggressive", (66395, 72123, 20365, 6520, 1440, 360, 0, 0, 4455, 4765, 436, 192, 0));
  ("gzip", "noopt", (299530, 234031, 30162, 35054, 0, 0, 0, 0, 5264, 34479, 11640, 106, 0));
  ("gzip", "base", (269072, 198986, 15654, 19258, 0, 583, 0, 0, 5264, 39356, 4656, 100, 0));
  ("gzip", "profile", (269654, 197874, 14220, 18094, 582, 583, 582, 0, 5264, 39356, 4656, 100, 0));
  ("gzip", "heuristic", (269654, 197874, 14220, 18094, 582, 583, 582, 0, 5264, 39356, 4656, 100, 0));
  ("gzip", "aggressive", (267326, 193218, 14220, 18094, 582, 583, 0, 0, 5264, 39356, 1164, 97, 0));
  ("mcf", "noopt", (617846, 448544, 82036, 96985, 0, 0, 0, 0, 22994, 69036, 52, 122, 0));
  ("mcf", "base", (459996, 365439, 51328, 71963, 0, 0, 0, 0, 22994, 75069, 0, 91, 0));
  ("mcf", "profile", (459996, 353505, 39394, 53996, 12000, 0, 5967, 0, 22994, 75069, 0, 91, 0));
  ("mcf", "heuristic", (459996, 353505, 39394, 53996, 12000, 0, 5967, 0, 22994, 75069, 0, 91, 0));
  ("mcf", "aggressive", (448062, 347538, 39394, 53996, 12000, 0, 0, 0, 22994, 75069, 0, 91, 0));
  ("parser", "noopt", (354405, 306484, 48867, 46858, 0, 0, 0, 0, 4788, 60574, 0, 70, 0));
  ("parser", "base", (339363, 310963, 42086, 41044, 0, 1, 0, 0, 4788, 78336, 0, 65, 0));
  ("parser", "profile", (340731, 309658, 40781, 38308, 1368, 1, 1368, 0, 4788, 78336, 0, 65, 0));
  ("parser", "heuristic", (340731, 309658, 40781, 38308, 1368, 1, 1368, 0, 4788, 78336, 0, 65, 0));
  ("parser", "aggressive", (335259, 306922, 40781, 38308, 1368, 1, 0, 0, 4788, 78336, 0, 62, 0));
  ("twolf", "noopt", (92124, 61932, 6862, 12518, 0, 0, 0, 0, 2368, 9926, 96, 108, 0));
  ("twolf", "base", (79608, 55886, 2982, 8943, 0, 0, 0, 0, 2368, 11688, 8, 97, 0));
  ("twolf", "profile", (79608, 54720, 2403, 3618, 3588, 0, 1737, 0, 2368, 11688, 0, 95, 0));
  ("twolf", "heuristic", (79608, 54720, 2403, 3618, 3588, 0, 1737, 0, 2368, 11688, 0, 95, 0));
  ("twolf", "aggressive", (72660, 51825, 2403, 3618, 3588, 0, 0, 0, 2368, 11688, 0, 86, 0));
  ("vpr", "noopt", (149926, 174721, 40524, 18528, 0, 0, 0, 0, 6256, 17273, 58, 113, 0));
  ("vpr", "base", (119907, 148888, 36010, 12273, 0, 0, 0, 0, 6256, 17273, 0, 86, 0));
  ("vpr", "profile", (125157, 151138, 36010, 10773, 750, 0, 3000, 0, 6256, 17273, 0, 86, 0));
  ("vpr", "heuristic", (125157, 151138, 36010, 10773, 750, 0, 3000, 0, 6256, 17273, 0, 86, 0));
  ("vpr", "aggressive", (119157, 148138, 36010, 10773, 750, 0, 0, 0, 6256, 17273, 0, 85, 0));
  ("cipher", "noopt", (11766, 8696, 1481, 1229, 0, 0, 0, 0, 531, 1607, 0, 62, 0));
  ("cipher", "base", (9549, 7326, 1153, 780, 0, 0, 0, 0, 531, 1607, 0, 50, 0));
  ("cipher", "profile", (9741, 6942, 769, 396, 192, 0, 192, 0, 531, 1607, 0, 50, 0));
  ("cipher", "heuristic", (9741, 6942, 769, 396, 192, 0, 192, 0, 531, 1607, 0, 50, 0));
  ("cipher", "aggressive", (8973, 6750, 769, 396, 192, 0, 0, 0, 531, 1607, 0, 50, 0));
  ("ctsel", "noopt", (15859, 10134, 1066, 1838, 0, 0, 0, 0, 499, 1221, 0, 62, 0));
  ("ctsel", "base", (11976, 7802, 577, 1452, 0, 0, 0, 0, 499, 1221, 0, 50, 0));
  ("ctsel", "profile", (11976, 7802, 577, 876, 288, 0, 288, 0, 499, 1221, 0, 49, 0));
  ("ctsel", "heuristic", (11976, 7802, 577, 876, 288, 0, 288, 0, 499, 1221, 0, 49, 0));
  ("ctsel", "aggressive", (11400, 7514, 577, 876, 288, 0, 0, 0, 499, 1221, 0, 48, 0));
]

let tuple_to_list (a, b, c, d, e, f, g, h, i, j, k, l, m) =
  [ a; b; c; d; e; f; g; h; i; j; k; l; m ]

let golden_workload w () =
  let open Spec_machine in
  let b = Experiments.run_workload ~quick:true w in
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
        tuple_to_list
          (List.assoc vname
             (List.filter_map
                (fun (n, v, t) -> if n = wname w then Some (v, t) else None)
                machine_goldens))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "%s/%s machine counters" (wname w) vname)
        want got)
    [ "noopt", b.Experiments.noopt; "base", b.Experiments.base;
      "profile", b.Experiments.prof_spec;
      "heuristic", b.Experiments.heur_spec;
      "aggressive", b.Experiments.aggressive ]

(* ------------------------------------------------------------------ *)
(* vm bytecode lowered from the compile-cache artifact                 *)
(* ------------------------------------------------------------------ *)

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "specengines-test-%d-%s" (Unix.getpid ()) tag)
  in
  (match Sys.readdir dir with
   | files -> Array.iter (fun f -> Sys.remove (Filename.concat dir f)) files
   | exception Sys_error _ -> ());
  dir

let vm_cache_src =
  {|
int A[32];
int main(){
  int i; int s; s = 0;
  for (i = 0; i < 32; i = i + 1) A[i] = i * 2;
  for (i = 0; i < 32; i = i + 1) s = s + A[i];
  print_int(s);
  return 0;
}
|}

(* Everything the vm reads from a lowered program, descriptor tables
   in pc order; floats by their bits *)
let check_same_bytecode label (a : Vmcode.program) (b : Vmcode.program) =
  let fbits p = Array.map Int64.bits_of_float p.Vmcode.fpool in
  Alcotest.(check int) (label ^ ": vmain") a.Vmcode.vmain b.Vmcode.vmain;
  Alcotest.(check bool) (label ^ ": fpool") true (fbits a = fbits b);
  Alcotest.(check (array string)) (label ^ ": spool") a.Vmcode.spool
    b.Vmcode.spool;
  Alcotest.(check int) (label ^ ": function count")
    (Array.length a.Vmcode.vfuncs) (Array.length b.Vmcode.vfuncs);
  let deopt f =
    List.sort compare
      (Hashtbl.fold (fun pc d acc -> (pc, d) :: acc) f.Vmcode.vdeopt [])
  in
  Array.iter2
    (fun (f : Vmcode.func) (g : Vmcode.func) ->
      let l = label ^ "/" ^ f.Vmcode.vname in
      Alcotest.(check string) (l ^ ": name") f.Vmcode.vname g.Vmcode.vname;
      Alcotest.(check (array int)) (l ^ ": vcode") f.Vmcode.vcode
        g.Vmcode.vcode;
      Alcotest.(check int) (l ^ ": n_regs") f.Vmcode.n_regs g.Vmcode.n_regs;
      Alcotest.(check int) (l ^ ": n_addr") f.Vmcode.n_addr g.Vmcode.n_addr;
      Alcotest.(check bool) (l ^ ": vformals") true
        (f.Vmcode.vformals = g.Vmcode.vformals);
      Alcotest.(check bool) (l ^ ": vmem_locals") true
        (f.Vmcode.vmem_locals = g.Vmcode.vmem_locals);
      Alcotest.(check bool) (l ^ ": vdeopt") true (deopt f = deopt g))
    a.Vmcode.vfuncs b.Vmcode.vfuncs

let vm_cache_roundtrip () =
  let c = Spec_fdo.Cache.create (fresh_dir "roundtrip") in
  let compile () =
    Pipeline.compile_and_optimize ~cache:c vm_cache_src Pipeline.Base
  in
  (* an uncached compile lowers bytecode on demand only *)
  let uncached =
    Pipeline.compile_and_optimize vm_cache_src Pipeline.Base
  in
  Alcotest.(check bool) "uncached vm is lowered on demand" false
    (Lazy.is_val uncached.Pipeline.vm);
  (* the artifact holds the program only: storing it lowers nothing *)
  let cold = compile () in
  Alcotest.(check bool) "cold is not from cache" false
    cold.Pipeline.from_cache;
  Alcotest.(check bool) "cold store leaves the bytecode unlowered" false
    (Lazy.is_val cold.Pipeline.vm);
  let cold_vm = Vm.run_program (Lazy.force cold.Pipeline.vm) in
  let warm = compile () in
  Alcotest.(check bool) "warm is from cache" true warm.Pipeline.from_cache;
  Alcotest.(check bool) "warm vm is lowered on demand" false
    (Lazy.is_val warm.Pipeline.vm);
  let warm_vm = Vm.run_program (Lazy.force warm.Pipeline.vm) in
  check_vs_oracle "vm-cache/warm" warm_vm (Interp_ref.run warm.Pipeline.prog);
  Alcotest.(check string) "warm vm output matches cold vm"
    cold_vm.Interp.output warm_vm.Interp.output;
  (* every kernel's train source under base, heuristic and profile, plus
     one deopt compile: what a hit lowers is what the cold compile
     lowered *)
  let roundtrip label ?(deopt = false) ?edge_profile ?profile_digest src
      variant =
    let compile () =
      Pipeline.compile_and_optimize ~cache:c ~deopt ?edge_profile
        ?profile_digest src variant
    in
    let cold = compile () in
    let warm = compile () in
    Alcotest.(check bool) (label ^ ": cold misses") false
      cold.Pipeline.from_cache;
    Alcotest.(check bool) (label ^ ": warm hits") true
      warm.Pipeline.from_cache;
    check_same_bytecode label (Lazy.force cold.Pipeline.vm)
      (Lazy.force warm.Pipeline.vm);
    warm
  in
  List.iter
    (fun w ->
      let src = Spec_workloads.Workloads.train_source w in
      let prog, prof, _ = Pipeline.train src in
      let digest =
        Spec_fdo.Store.(digest (of_profile prog prof))
      in
      List.iter
        (fun (vname, edge_profile, profile_digest, variant) ->
          ignore
            (roundtrip (wname w ^ "/" ^ vname) ?edge_profile ?profile_digest
               src variant
             : Pipeline.result))
        [ "base", None, None, Pipeline.Base;
          "heuristic", None, None, Pipeline.Spec_heuristic;
          "profile", Some (Some prof), Some digest,
          Pipeline.Spec_profile prof ])
    Spec_workloads.Workloads.all;
  let cipher = Spec_workloads.Workloads.train_source (find "cipher") in
  let warm =
    roundtrip "cipher/heuristic+deopt" ~deopt:true cipher
      Pipeline.Spec_heuristic
  in
  Alcotest.(check bool) "deopt compile carries descriptor tables" true
    (Array.exists
       (fun f -> Hashtbl.length f.Vmcode.vdeopt > 0)
       (Lazy.force warm.Pipeline.vm).Vmcode.vfuncs)

(* ------------------------------------------------------------------ *)
(* Mutants that lower                                                  *)
(* ------------------------------------------------------------------ *)

(* Every mutant of the frontend's seed-1 corpus that lowers
   ({!Spec_mutate.Mutate.corpus}) is compiled unoptimized and with
   heuristic speculation and run on the vm under bounded fuel.  It must
   print its output or stop with a runtime error (out of fuel, a memory
   fault, a bad builtin argument), never with any other exception. *)
let mutants_run () =
  let lowered =
    List.filter
      (fun (_, src) ->
        match Lower.compile src with
        | _ -> true
        | exception Ast.Frontend_error _ -> false)
      (Spec_mutate.Mutate.corpus ~seed:1)
  in
  Alcotest.(check int) "mutants that lower" 184 (List.length lowered);
  List.iter
    (fun (label, src) ->
      List.iter
        (fun variant ->
          match
            let r = Pipeline.compile_and_optimize src variant in
            Vm.run_program ~fuel:1_000_000 (Lazy.force r.Pipeline.vm)
          with
          | _ | (exception Interp.Runtime_error _) -> ()
          | exception e ->
            Alcotest.failf "%s under %s: %s" label
              (Pipeline.variant_name variant) (Printexc.to_string e))
        [ Pipeline.Noopt; Pipeline.Spec_heuristic ])
    lowered

(* ------------------------------------------------------------------ *)
(* --jobs determinism                                                  *)
(* ------------------------------------------------------------------ *)

let render_tables (bs : Experiments.bench_result list) =
  String.concat "\n"
    (List.concat_map
       (fun b ->
         [ Experiments.fig10_row b; Experiments.fig11_row b;
           Experiments.fig12_row b; Experiments.heuristics_row b;
           Experiments.rse_row b ])
       bs)

let jobs_determinism () =
  let ws = List.map find [ "art"; "equake"; "mcf" ] in
  let seq = Experiments.run_workloads ~quick:true ws in
  let par = with_jobs 4 (fun () -> Experiments.run_workloads ~quick:true ws) in
  Alcotest.(check string) "table rows identical under --jobs 4"
    (render_tables seq) (render_tables par)

let suite =
  [ Alcotest.test_case "parpool: order + nested fan-out" `Quick pool_order;
    Alcotest.test_case "parpool: exception propagation" `Quick pool_exn;
    Alcotest.test_case "vm artifact cache round trip" `Quick
      vm_cache_roundtrip;
    Alcotest.test_case "mutants that lower run or stop with an error"
      `Quick mutants_run ]
  @ List.map
      (fun w ->
        Alcotest.test_case
          ("interp differential: " ^ wname w)
          `Slow (diff_workload w))
      Spec_workloads.Workloads.all
  @ List.map
      (fun w ->
        Alcotest.test_case
          ("machine goldens: " ^ wname w)
          `Slow (golden_workload w))
      Spec_workloads.Workloads.all
  @ [ Alcotest.test_case "harness deterministic under --jobs" `Slow
        jobs_determinism ]

(* Whole-stack differential fuzzing.

   Random structured programs — functions, floats, pointer tables, nested
   loops, input-dependent aliasing — are compiled under every pipeline
   variant and executed on both the reference interpreter and the ITL
   machine.  All observable outputs must be bit-identical to the
   unoptimized interpreter run.  This exercises, in one property: the
   frontend, alias analysis, speculative SSA, speculative SSAPRE, store
   promotion, strength reduction, cleanup, codegen, scheduling, the ALAT,
   and the interpreter's semantic ALAT.  Profiled and load-reuse runs on
   the vm must match the plain vm and the reference exactly.  A second
   differential pits the threaded-code vm against the tree-walking
   reference under fault injection, and a third pins the vm's
   deoptimization recovery. *)

open Spec_ir
open Spec_driver

let check_bool = Alcotest.(check bool)

(* ---- generator ---- *)

(* a random kernel over a pointer table: every interesting aliasing shape
   the paper cares about can arise *)
let gen_program : string QCheck.Gen.t =
  QCheck.Gen.(
    let* seed = int_range 1 100000 in
    let* n = int_range 3 25 in
    let* alias_pct = int_range 0 100 in
    let* use_fn = bool in
    let* use_float = bool in
    let* inner = int_range 1 4 in
    let* acc_via_ptr = bool in
    let* extra_stores = int_range 0 2 in
    let body_stores =
      String.concat " "
        (List.init extra_stores (fun k ->
             Printf.sprintf "*q = i * %d + j;" (k + 2)))
    in
    let fn_def =
      if use_fn then
        "int combine(int x, int y){ if (x > y) return x - y; return x + y; } "
      else ""
    in
    let combine a b =
      if use_fn then Printf.sprintf "combine(%s, %s)" a b
      else Printf.sprintf "(%s + %s)" a b
    in
    let float_part =
      if use_float then
        "float* fv; fv = (float*)tab[2]; fv[i % 8] = fv[i % 8] + 0.5; "
      else ""
    in
    let acc_update =
      if acc_via_ptr then "*acc = *acc + a[j % 16] + i;"
      else "s = s + a[j % 16] + i;"
    in
    return
      (Printf.sprintf
         {|
int* tab[4];
%s
int main(){
  seed(%d);
  tab[0] = (int*)malloc(128);
  tab[1] = (int*)malloc(128);
  tab[2] = (int*)malloc(64);
  tab[3] = (int*)malloc(8);
  int* a; a = tab[0];
  int* b; b = tab[1];
  int* acc; acc = tab[3];
  *acc = 0;
  for (int k = 0; k < 16; k++) { a[k] = rnd(50); b[k] = rnd(50); }
  int s; s = 0;
  for (int i = 0; i < %d; i++) {
    int* q;
    if (rnd(100) < %d) q = a; else q = b;
    for (int j = 0; j < %d; j++) {
      %s
      q[(i + j) %% 16] = %s;
      %s
      %s
    }
  }
  print_int(s + *acc);
  int t; t = 0;
  for (int k = 0; k < 16; k++) t = t + a[k] + b[k];
  print_int(t);
  return 0;
}
|}
         fn_def seed n alias_pct inner acc_update
         (combine "a[i % 16]" "b[j % 16]")
         body_stores float_part))

let variants_of src =
  let prof = Pipeline.profile_of_source src in
  [ "base", Pipeline.Base;
    "profile", Pipeline.Spec_profile prof;
    "heuristic", Pipeline.Spec_heuristic ]
  |> List.map (fun (n, v) -> (n, v, prof))

(* an engine run agrees with the reference oracle's run: output, return
   value and every counter the reference keeps *)
let agrees_with_oracle (r : Spec_prof.Interp.result)
    (o : Spec_prof.Interp_ref.result) =
  let ret_agrees =
    match r.Spec_prof.Interp.ret, o.Spec_prof.Interp_ref.ret with
    | Spec_prof.Interp.Vint x, Spec_prof.Interp_ref.Vint y -> x = y
    | Spec_prof.Interp.Vflt x, Spec_prof.Interp_ref.Vflt y ->
      compare x y = 0
    | _ -> false
  in
  let a = r.Spec_prof.Interp.counters
  and b = o.Spec_prof.Interp_ref.counters in
  r.Spec_prof.Interp.output = o.Spec_prof.Interp_ref.output
  && ret_agrees
  && a.Spec_prof.Interp.steps = b.Spec_prof.Interp_ref.steps
  && a.Spec_prof.Interp.mem_loads = b.Spec_prof.Interp_ref.mem_loads
  && a.Spec_prof.Interp.mem_stores = b.Spec_prof.Interp_ref.mem_stores
  && a.Spec_prof.Interp.branches = b.Spec_prof.Interp_ref.branches
  && a.Spec_prof.Interp.calls = b.Spec_prof.Interp_ref.calls
  && a.Spec_prof.Interp.check_stmts = b.Spec_prof.Interp_ref.check_stmts
  && a.Spec_prof.Interp.check_reloads = b.Spec_prof.Interp_ref.check_reloads

(* instrumentation must not perturb a run: the profiled vm (profile or
   load-reuse bytecode) = the plain vm = the reference oracle, on output
   and on every counter *)
let profiled_runs_agree (prog : Sir.prog) =
  let plain = Spec_prof.Vm.run prog in
  let _, profiled = Spec_prof.Profiler.profile prog in
  let _, reuse = Spec_prof.Load_reuse.analyse prog in
  profiled = plain && reuse = plain
  && agrees_with_oracle plain (Spec_prof.Interp_ref.run prog)

let prop_whole_stack =
  QCheck.Test.make ~count:120 ~name:"whole-stack differential fuzzing"
    (QCheck.make ~print:Fun.id gen_program)
    (fun src ->
      let expected =
        (Spec_prof.Vm.run (Lower.compile src)).Spec_prof.Interp.output
      in
      profiled_runs_agree (Lower.compile src)
      && List.for_all
        (fun (name, variant, prof) ->
          let r =
            Pipeline.compile_and_optimize ~edge_profile:(Some prof) src
              variant
          in
          let vm_out =
            (Spec_prof.Vm.run r.Pipeline.prog).Spec_prof.Interp.output
          in
          (* the tree-walking reference oracle on the same optimized
             program *)
          let ref_out =
            (Spec_prof.Interp_ref.run r.Pipeline.prog)
              .Spec_prof.Interp_ref.output
          in
          let mp = Spec_codegen.Codegen.lower r.Pipeline.prog in
          ignore (Spec_codegen.Schedule.run mp : Spec_codegen.Schedule.stats);
          let mach_out = (Spec_machine.Machine.run mp).Spec_machine.Machine.output in
          vm_out = expected && ref_out = expected && mach_out = expected
          (* load reuse runs on base builds *)
          && (name <> "base" || profiled_runs_agree r.Pipeline.prog))
        (variants_of src))

(* a focused generator for the SSA/PRE corner cases: deep nesting, breaks,
   early returns, while loops with zero-trip risk *)
let gen_control : string QCheck.Gen.t =
  QCheck.Gen.(
    let* seed = int_range 1 10000 in
    let* lim = int_range 0 12 in
    let* brk = int_range 0 20 in
    let* zero_trip = bool in
    return
      (Printf.sprintf
         {|
int g; int h;
int main(){
  seed(%d);
  int s; s = 0;
  g = rnd(10);
  int* w; w = &h;
  if (rnd(1000) == 1001) w = &g;
  int i; i = %s;
  while (i < %d) {
    s = s + g;
    *w = i;
    if (i == %d) break;
    if (g > 5) { s = s + 1; } else { s = s - 1; }
    i = i + 1;
  }
  if (s < 0) { print_int(0 - s); return 1; }
  print_int(s); print_int(h);
  return 0;
}
|}
         seed
         (if zero_trip then "100" else "0")
         lim brk))

let prop_control_shapes =
  QCheck.Test.make ~count:120 ~name:"control-flow corner cases"
    (QCheck.make ~print:Fun.id gen_control)
    (fun src ->
      let expected =
        (Spec_prof.Vm.run (Lower.compile src)).Spec_prof.Interp.output
      in
      List.for_all
        (fun (_n, variant, prof) ->
          let r =
            Pipeline.compile_and_optimize ~edge_profile:(Some prof) src
              variant
          in
          (Spec_prof.Vm.run r.Pipeline.prog).Spec_prof.Interp.output
          = expected
          && (Spec_machine.Machine.run_sir r.Pipeline.prog)
               .Spec_machine.Machine.output
             = expected)
        (variants_of src))

(* recursion + memory: frames, the register stack, per-frame ALAT tags *)
let gen_recursive : string QCheck.Gen.t =
  QCheck.Gen.(
    let* seed = int_range 1 10000 in
    let* depth = int_range 1 12 in
    return
      (Printf.sprintf
         {|
int* stackmem[1];
int walk(int n, int* cells){
  if (n <= 0) return cells[0];
  cells[n %% 16] = cells[n %% 16] + n;
  int below; below = walk(n - 1, cells);
  return below + cells[n %% 16];
}
int main(){
  seed(%d);
  stackmem[0] = (int*)malloc(128);
  int* cells; cells = stackmem[0];
  for (int k = 0; k < 16; k++) cells[k] = rnd(9);
  print_int(walk(%d, cells));
  return 0;
}
|}
         seed depth))

let prop_recursive =
  QCheck.Test.make ~count:80 ~name:"recursive frames and memory"
    (QCheck.make ~print:Fun.id gen_recursive)
    (fun src ->
      let expected =
        (Spec_prof.Vm.run (Lower.compile src)).Spec_prof.Interp.output
      in
      List.for_all
        (fun (_n, variant, prof) ->
          let r =
            Pipeline.compile_and_optimize ~edge_profile:(Some prof) src
              variant
          in
          (Spec_machine.Machine.run_sir r.Pipeline.prog)
            .Spec_machine.Machine.output
          = expected)
        (variants_of src))

(* ---- vm vs reference differential ---- *)

(* the threaded-code vm and the tree-walking reference must agree
   bit-for-bit on the same optimized program — outputs, return value,
   and every counter the reference keeps — under every fault plan.
   Each draws a fresh injector from the same plan and scope, so both see
   identical deterministic fault streams; equal reload counts then mean
   they chose the same chaos victims. *)
let fault_plans = [ ""; "inv=50000"; "flush=64"; "flush=16,inv=200000" ]

let engines_agree r name plan_spec =
  let plan =
    match Spec_stress.Faults.parse ~seed:7 plan_spec with
    | Ok p -> p
    | Error m -> failwith m
  in
  let inj () =
    Spec_stress.Faults.injector_opt plan ~scope:[ "fuzz"; name; plan_spec ]
  in
  let vm =
    Spec_prof.Vm.run_program ?faults:(inj ()) (Lazy.force r.Pipeline.vm)
  in
  agrees_with_oracle vm
    (Spec_prof.Interp_ref.run ?faults:(inj ()) r.Pipeline.prog)

let prop_engine_differential =
  QCheck.Test.make ~count:40
    ~name:"engine differential (vm/ref, faulted)"
    (QCheck.make ~print:Fun.id
       QCheck.Gen.(oneof [ gen_program; gen_control; gen_recursive ]))
    (fun src ->
      List.for_all
        (fun (name, variant, prof) ->
          let r =
            Pipeline.compile_and_optimize ~edge_profile:(Some prof) src
              variant
          in
          List.for_all (engines_agree r name) fault_plans)
        (variants_of src))

(* The recursion-heavy workload kernels under an invalidation plan and
   a flush plan: returning frames keep dropping their entries, so chaos
   victims are drawn from a table that shrinks as well as grows, and
   the vm and the reference must still pick the same ones. *)
let test_recursive_workloads_faulted () =
  let module W = Spec_workloads.Workloads in
  List.iter
    (fun kernel ->
      let w = List.find (fun w -> w.W.name = kernel) W.all in
      let src = W.train_source w in
      List.iter
        (fun (name, variant, prof) ->
          if name <> "base" then begin
            let r =
              Pipeline.compile_and_optimize ~edge_profile:(Some prof) src
                variant
            in
            List.iter
              (fun plan ->
                check_bool
                  (Printf.sprintf "%s/%s %s: vm = ref" kernel name plan)
                  true
                  (engines_agree r (kernel ^ "/" ^ name) plan))
              [ "inv=50000"; "flush=64" ];
            (* the invalidation plan really removes live entries *)
            let reloads faults =
              (Spec_prof.Vm.run ?faults r.Pipeline.prog)
                .Spec_prof.Interp.counters.Spec_prof.Interp.check_reloads
            in
            let inv =
              Spec_stress.Faults.injector_opt
                (Result.get_ok (Spec_stress.Faults.parse ~seed:7 "inv=50000"))
                ~scope:[ "fuzz"; kernel; name ]
            in
            check_bool
              (Printf.sprintf "%s/%s: chaos invalidation costs reloads" kernel
                 name)
              true (reloads inv > reloads None)
          end)
        (variants_of src))
    [ "parser"; "gzip" ]

(* ---- deoptimization recovery ---- *)

(* with [~recover], a missed check deoptimizes into the unoptimized body
   instead of re-running the load.  The reference has no [~recover], so
   the vm's deopt runs are held to the unoptimized oracle's output and,
   on the cipher kernel below, to counters pinned when a second,
   independent executor still cross-checked them. *)
let deopt_fault_plans =
  [ "flush=16"; "inv=200000"; "alat=2"; "flush=16,inv=100000" ]

let deopt_run r dplan name plan_spec ~recover =
  let plan =
    match Spec_stress.Faults.parse ~seed:11 plan_spec with
    | Ok p -> p
    | Error m -> failwith m
  in
  let faults =
    Spec_stress.Faults.injector_opt plan
      ~scope:[ "fuzz-deopt"; name; plan_spec ]
  in
  if recover then Spec_prof.Vm.run ?faults ~recover:dplan r.Pipeline.prog
  else Spec_prof.Vm.run ?faults r.Pipeline.prog

(* A run under [~recover] that never deoptimized took no recovery
   decision, so it must equal ([=]: output, return value, every counter)
   the reload run drawn from the same plan and scope.  Random programs
   rarely keep a descriptor whose check then misses: a scratch run of
   this rule over 80 programs x 3 variants x 4 plans (960 runs) held on
   every run and saw no deopt at all, so this leg guards the recovery
   plumbing's no-op path; real deopts are compared in
   [test_deopt_forced_faults]. *)
let prop_deopt_recovery =
  QCheck.Test.make ~count:15
    ~name:"deopt recovery differential (faulted)"
    (QCheck.make ~print:Fun.id
       QCheck.Gen.(oneof [ gen_program; gen_control; gen_recursive ]))
    (fun src ->
      let expected =
        (Spec_prof.Interp_ref.run (Lower.compile src))
          .Spec_prof.Interp_ref.output
      in
      let dplan = Spec_safety.Deopt.make_plan (Lower.compile src) in
      List.for_all
        (fun (name, variant, prof) ->
          let r =
            Pipeline.compile_and_optimize ~edge_profile:(Some prof)
              ~deopt:true src variant
          in
          List.for_all
            (fun plan ->
              let deo = deopt_run r dplan name plan ~recover:true in
              deo.Spec_prof.Interp.output = expected
              && (deo.Spec_prof.Interp.counters.Spec_prof.Interp.deopts > 0
                  || deo = deopt_run r dplan name plan ~recover:false))
            deopt_fault_plans)
        (variants_of src))

(* The vm's counters on the cipher kernel's heuristic build under each
   deopt fault plan, recorded while the pre-compiled tree engine still
   ran beside it and matched them counter for counter. *)
let cipher_deopt_counters =
  let c steps mem_loads check_stmts deopts =
    { Spec_prof.Interp.steps; mem_loads; mem_stores = 531; branches = 538;
      calls = 344; check_stmts; check_reloads = 0; deopts }
  in
  [ "flush=16", c 3871 1128 14 3;
    "inv=200000", c 3855 1140 10 3;
    "alat=2", c 4586 588 192 0;
    "flush=16,inv=100000", c 3843 1149 7 3 ]

let test_deopt_forced_faults () =
  (* deterministic leg with a kernel whose descriptors are known to
     survive the pipeline: forced periodic flushes must actually drive
     the deopt path, not just fall back to reloads *)
  let src =
    Spec_workloads.Workloads.train_source
      (List.find
         (fun w -> w.Spec_workloads.Workloads.name = "cipher")
         Spec_workloads.Workloads.all)
  in
  let expected =
    (Spec_prof.Interp_ref.run (Lower.compile src)).Spec_prof.Interp_ref.output
  in
  let dplan = Spec_safety.Deopt.make_plan (Lower.compile src) in
  let r =
    Pipeline.compile_and_optimize ~deopt:true src Pipeline.Spec_heuristic
  in
  List.iter
    (fun plan ->
      let deo = deopt_run r dplan "cipher" plan ~recover:true in
      Alcotest.(check string) (plan ^ ": the oracle's output") expected
        deo.Spec_prof.Interp.output;
      check_bool (plan ^ ": pinned counters") true
        (deo.Spec_prof.Interp.counters
         = List.assoc plan cipher_deopt_counters))
    deopt_fault_plans

let test_fuzz_smoke () =
  (* one deterministic instance of each generator, as a fast smoke test *)
  let pick g = QCheck.Gen.generate1 ~rand:(Random.State.make [| 42 |]) g in
  List.iter
    (fun src ->
      let expected =
        (Spec_prof.Vm.run (Lower.compile src)).Spec_prof.Interp.output
      in
      check_bool "smoke instance agrees" true
        (List.for_all
           (fun (_n, v, prof) ->
             let r =
               Pipeline.compile_and_optimize ~edge_profile:(Some prof) src v
             in
             (Spec_prof.Vm.run r.Pipeline.prog).Spec_prof.Interp.output
             = expected)
           (variants_of src)))
    [ pick gen_program; pick gen_control; pick gen_recursive ]

let suite =
  [ Alcotest.test_case "fuzz smoke" `Quick test_fuzz_smoke;
    QCheck_alcotest.to_alcotest prop_whole_stack;
    QCheck_alcotest.to_alcotest prop_control_shapes;
    QCheck_alcotest.to_alcotest prop_recursive;
    QCheck_alcotest.to_alcotest prop_engine_differential;
    Alcotest.test_case "recursive workloads, faulted (vm/ref)" `Quick
      test_recursive_workloads_faulted;
    Alcotest.test_case "deopt recovery under forced faults" `Quick
      test_deopt_forced_faults;
    QCheck_alcotest.to_alcotest prop_deopt_recovery ]

(* The [execute] workload: running already-compiled programs, with no
   compiling in the measured loop.

   The cells are every kernel x {base, profile, heuristic} x {vm,
   inorder, ooo} on the ref inputs, compiled, lowered and resolved in
   setup the way the paper's harness builds them (edge profile from the
   train input).  One op is one [Vm.run_program] or
   [Machine.run_resolved_on] call.  A run makes two passes over the
   cells, each in its own seeded order, and keeps each cell's best time;
   the seed changes the order, never the work.  Speculative vm cells
   maintain the semantic ALAT and base cells do not, so an ALAT change
   should move the former and leave the latter. *)

open Spec_driver
open Common
module W = Spec_workloads.Workloads
module Machine = Spec_machine.Machine

type backend = Vm | Inorder | Ooo

type cell = { kernel : int; variant : int; backend : backend }

let variant_names = [| "base"; "profile"; "heuristic" |]
let backend_name = function Vm -> "vm" | Inorder -> "inorder" | Ooo -> "ooo"

let n_passes = 2

(* nominal seconds of one pass over all 90 cells on the reference box *)
let pass_s = 9.

let all_cells =
  Array.of_list
    (List.concat_map
       (fun k ->
         List.concat_map
           (fun v ->
             List.map (fun b -> { kernel = k; variant = v; backend = b })
               [ Vm; Inorder; Ooo ])
           [ 0; 1; 2 ])
       (List.init (Array.length kernels) Fun.id))

(* The cells of a run and each pass's order.  A run too short for two
   whole passes (the test suite's) measures a seeded subset. *)
let op_list cfg =
  let rng = rng cfg "execute" in
  let n = Array.length all_cells in
  let per_pass =
    let budget = cfg.seconds /. float_of_int n_passes in
    if budget >= pass_s *. 0.75 then n
    else max 1 (int_of_float (Float.ceil (float_of_int n *. budget /. pass_s)))
  in
  let next = deck (Srng.split rng "subset") all_cells in
  let cells = Array.init per_pass (fun _ -> next ()) in
  let order = deck (Srng.split rng "order") cells in
  List.init n_passes (fun _ -> Array.init per_pass (fun _ -> order ()))

type prepared = {
  vm : Spec_prof.Vmcode.program;
  rp : Machine.rprog;
}

type state = {
  progs : (int * int, prepared) Hashtbl.t;  (* (kernel, variant) *)
  oracle : (int, string) Hashtbl.t;         (* kernel -> reference output *)
}

let setup cells () =
  let kernels_used =
    List.sort_uniq compare (Array.to_list (Array.map (fun c -> c.kernel) cells))
  in
  let progs = Hashtbl.create 32 and oracle = Hashtbl.create 16 in
  List.iter
    (fun k ->
      let w = kernels.(k) in
      let profile = Pipeline.profile_of_source (W.train_source w) in
      let src = W.ref_source w in
      Array.iteri
        (fun v variant ->
          let r =
            Pipeline.optimize ~edge_profile:(Some profile)
              (Spec_ir.Lower.compile src) variant
          in
          let mp = Spec_codegen.Codegen.lower r.Pipeline.prog in
          ignore (Spec_codegen.Schedule.run mp : Spec_codegen.Schedule.stats);
          let rp = Trace.span "machine.resolve" (fun () -> Machine.resolve mp) in
          Hashtbl.replace progs (k, v) { vm = Lazy.force r.Pipeline.vm; rp })
        [| Pipeline.Base; Pipeline.Spec_profile profile;
           Pipeline.Spec_heuristic |];
      Hashtbl.replace oracle k
        (Spec_prof.Interp_ref.run (Spec_ir.Lower.compile src))
          .Spec_prof.Interp_ref.output)
    kernels_used;
  { progs; oracle }

(* What one op observed, checked and counted outside its timed region. *)
type obs = {
  output : string;
  steps : int;          (* vm statements retired *)
  vchecks : int;
  vmisses : int;
  insns : int;          (* machine instructions retired *)
  cycles : int;
}

let exec st c =
  let p = Hashtbl.find st.progs (c.kernel, c.variant) in
  match c.backend with
  | Vm ->
    let name = if c.variant = 0 then "vm.base" else "vm.spec" in
    let r = Trace.span name (fun () -> Spec_prof.Vm.run_program p.vm) in
    let k = r.Spec_prof.Interp.counters in
    { output = r.Spec_prof.Interp.output; steps = k.Spec_prof.Interp.steps;
      vchecks = k.Spec_prof.Interp.check_stmts;
      vmisses = k.Spec_prof.Interp.check_reloads; insns = 0; cycles = 0 }
  | Inorder | Ooo ->
    let kind, name =
      if c.backend = Inorder then (Machine.Inorder, "machine.inorder")
      else (Machine.Ooo, "machine.ooo")
    in
    let m = Trace.span name (fun () -> Machine.run_resolved_on kind p.rp) in
    { output = m.Machine.output; steps = 0; vchecks = 0; vmisses = 0;
      insns = m.Machine.perf.Machine.insns;
      cycles = m.Machine.perf.Machine.cycles }

let is_spec_kernel k = not (List.mem kernels.(k).W.name [ "cipher"; "ctsel" ])

let what c =
  Printf.sprintf "%s/%s/%s" kernels.(c.kernel).W.name variant_names.(c.variant)
    (backend_name c.backend)

let run cfg ck =
  let orders = op_list cfg in
  let buf = Buffer.create 4096 in
  List.iter
    (Array.iter (fun c -> Printf.bprintf buf "%s\n" (what c)))
    orders;
  (* three set-ups for the set-up time; the passes share the last *)
  let traced = !Trace.enabled in
  let last = ref None in
  let times =
    List.init 3 (fun i ->
        Trace.enabled := traced && i = 2;
        let t0 = now () in
        last := Some (setup (List.hd orders) ());
        now () -. t0)
  in
  let st = Option.get !last in
  (* per cell: the first observation, which every repeat must match *)
  let seen : (cell, obs) Hashtbl.t = Hashtbl.create 128 in
  let best_t : (cell, float) Hashtbl.t = Hashtbl.create 128 in
  let sum = Hashtbl.create 16 in
  let add name v =
    Hashtbl.replace sum name (v +. Option.value ~default:0. (Hashtbl.find_opt sum name))
  in
  let pass p order =
    Trace.enabled := traced && p = n_passes - 1;
    let gc0 = Gc.quick_stat () in
    let total = ref 0. in
    Array.iteri
      (fun i c ->
        Trace.set_op (i + 1);
        let t0 = now () in
        let o = exec st c in
        let dt = now () -. t0 in
        total := !total +. dt;
        (match Hashtbl.find_opt best_t c with
         | Some b when b <= dt -> ()
         | _ -> Hashtbl.replace best_t c dt);
        ck.attempted <- ck.attempted + 1;
        check ck (o.output = Hashtbl.find st.oracle c.kernel)
          "execute %s: output differs from the reference interpreter" (what c);
        (match Hashtbl.find_opt seen c with
         | Some o0 -> check ck (o0 = o) "execute %s: a repeat run differs" (what c)
         | None -> Hashtbl.replace seen c o);
        if !Trace.enabled then
          let spec = if c.variant = 0 then "base" else "spec" in
          match c.backend with
          | Vm ->
            add (spec ^ ".steps") (float_of_int o.steps);
            add "vm.checks" (float_of_int o.vchecks);
            add "vm.check_misses" (float_of_int o.vmisses)
          | Inorder -> add "inorder.insns" (float_of_int o.insns)
          | Ooo -> add "ooo.insns" (float_of_int o.insns))
      order;
    (!total, gc_delta gc0)
  in
  let results = List.mapi pass orders in
  Trace.enabled := traced;
  (* both cores must retire the same instructions *)
  Hashtbl.iter
    (fun c o ->
      if c.backend = Inorder then
        match Hashtbl.find_opt seen { c with backend = Ooo } with
        | Some o' ->
          check ck (o.insns = o'.insns)
            "execute %s: inorder and ooo retired different instruction counts"
            (what c)
        | None -> ())
    seen;
  let cycles backend =
    Hashtbl.fold
      (fun c o acc -> if c.backend = backend then acc + o.cycles else acc)
      seen 0
  in
  let cyc k v =
    Option.map
      (fun o -> float_of_int o.cycles)
      (Hashtbl.find_opt seen { kernel = k; variant = v; backend = Inorder })
  in
  let spec_ratio =
    Stats.geomean
      (List.filter_map
         (fun k ->
           match (cyc k 1, cyc k 0) with
           | Some p, Some b when is_spec_kernel k && b > 0. -> Some (p /. b)
           | _ -> None)
         (List.init (Array.length kernels) Fun.id))
  in
  let g name = Option.value ~default:0. (Hashtbl.find_opt sum name) in
  let busy = busy_metrics () in
  let b name = Option.value ~default:0. (List.assoc_opt name busy) in
  let durations = Array.of_list (Hashtbl.fold (fun _ t l -> t :: l) best_t []) in
  let _, (alloc_w, majors) = List.nth results (n_passes - 1) in
  let layer =
    busy
    @ trace_metrics ~pass_times:(List.map fst results)
    @ [ "vm.spec_msteps_s", ratio (g "spec.steps") (b "vm.spec_busy_s") /. 1e6;
        "vm.base_msteps_s", ratio (g "base.steps") (b "vm.base_busy_s") /. 1e6;
        "vm.checks", g "vm.checks";
        "vm.check_misses", g "vm.check_misses";
        "machine.inorder_minsn_s",
        ratio (g "inorder.insns") (b "machine.inorder_busy_s") /. 1e6;
        "machine.ooo_minsn_s",
        ratio (g "ooo.insns") (b "machine.ooo_busy_s") /. 1e6;
        "machine.ooo_mcycles", float_of_int (cycles Ooo) /. 1e6;
        "machine.sim_mcycles", float_of_int (cycles Inorder) /. 1e6;
        "machine.spec_cycles_ratio", spec_ratio;
        "gc.alloc_mw_per_op",
        alloc_w /. float_of_int (max 1 (Array.length durations)) /. 1e6;
        "gc.major", float_of_int majors ]
  in
  { digest = digest_of_buffer buf;
    metrics =
      ("setup_s", Stats.median times) :: ("peak_rss_mb", peak_rss_mb 0)
      :: closed_loop_metrics durations
      @ layer;
    samples = Array.length durations }

(* The [build] workload: incremental-build steps through the compile
   cache, as `speccc run --cache-dir` performs them.

   One op compiles a source against the cache
   ([Pipeline.compile_and_optimize ~cache]) and lowers the result to the
   machine ([Codegen.lower], [Schedule.run]).  The mix is fixed: 70 %
   warm ops (a single-kernel key already in the cache), 20 % cold single
   kernels and 10 % cold 8-copy units, each cold op a kernel's train
   source with a fresh input seed (same code shape, new key).  The slow
   equake kernel fills a fifth of the unit slots so that the p99 lands
   inside one cluster of large compiles rather than on the boundary
   between two. *)

open Spec_driver
open Common
module W = Spec_workloads.Workloads
module Store = Spec_fdo.Store
module Cache = Spec_fdo.Cache

type variant = Base | Heuristic | Profile
type kind = Warm | Cold | Unit

type op = { kind : kind; kernel : int; variant : variant; input : int }

let variants = [| Base; Heuristic; Profile |]
let variant_name = function
  | Base -> "base" | Heuristic -> "heuristic" | Profile -> "profile"
let kind_name = function Warm -> "warm" | Cold -> "cold" | Unit -> "unit"

(* each pass starts from an empty cache; an op's time is its best *)
let n_passes = 3

(* nominal ops per second on the reference box (see README) *)
let ops_per_s = 270.

(* per block of 20 ops *)
let kind_mix =
  List.init 14 (fun _ -> Warm) @ List.init 4 (fun _ -> Cold)
  @ List.init 2 (fun _ -> Unit)

let unit_kernels =
  List.map kernel_ix
    [ "equake"; "equake"; "ammp"; "art"; "gzip"; "vpr"; "mcf"; "twolf";
      "parser"; "cipher" ]

let combos ks =
  Array.of_list
    (List.concat_map (fun k -> List.map (fun v -> (k, v)) (Array.to_list variants)) ks)

let all_kernels = List.init (Array.length kernels) Fun.id

(* Keys pre-warmed in setup: two inputs of every (kernel, variant) the
   warm ops draw from. *)
let prewarm_per_combo = 2

let source op =
  let w = kernels.(op.kernel) in
  let src = w.W.source { w.W.train with W.seed = op.input } in
  match op.kind with
  | Unit -> Experiments.compile_unit ~copies:8 src
  | Warm | Cold -> src

(* The seeded op list: the prewarm keys, then one pass's ops.  Warm ops
   draw from the keys of their (kernel, variant) cached so far. *)
let op_list cfg =
  let rng = rng cfg "build" in
  let fresh = fresh_seed (Srng.split rng "inputs") in
  let pick = Srng.split rng "warm-key" in
  let kinds = deck (Srng.split rng "kind") (Array.of_list kind_mix) in
  let warm_c = deck (Srng.split rng "warm") (combos all_kernels) in
  let cold_c = deck (Srng.split rng "cold") (combos all_kernels) in
  let unit_c = deck (Srng.split rng "unit") (combos unit_kernels) in
  let n =
    max 1 (int_of_float (Float.round (ops_per_s *. cfg.seconds /. float_of_int n_passes)))
  in
  let draws = List.init n (fun _ -> kinds ()) in
  let warm_combos =
    List.filter_map (fun k -> if k = Warm then Some (warm_c ()) else None) draws
  in
  let pools = Hashtbl.create 32 in
  let add c s =
    Hashtbl.replace pools c (s :: Option.value ~default:[] (Hashtbl.find_opt pools c))
  in
  let prewarm =
    List.sort_uniq compare warm_combos
    |> List.concat_map (fun (k, v) ->
           List.init prewarm_per_combo (fun _ ->
               let s = fresh () in
               add (k, v) s;
               { kind = Cold; kernel = k; variant = v; input = s }))
  in
  let warm_left = ref warm_combos in
  let ops =
    List.map
      (function
        | Warm ->
          let k, v = List.hd !warm_left in
          warm_left := List.tl !warm_left;
          let pool = Array.of_list (Hashtbl.find pools (k, v)) in
          { kind = Warm; kernel = k; variant = v;
            input = pool.(Srng.below pick (Array.length pool)) }
        | Cold ->
          let k, v = cold_c () in
          let s = fresh () in
          add (k, v) s;
          { kind = Cold; kernel = k; variant = v; input = s }
        | Unit ->
          let k, v = unit_c () in
          { kind = Unit; kernel = k; variant = v; input = fresh () })
      draws
  in
  (prewarm, ops)

type state = {
  cache : Cache.t;
  cache_dir : string;
  stores : (int, Store.t * string) Hashtbl.t;  (* kernel -> profile, digest *)
  expected : (int * variant * int, Digest.t Lazy.t) Hashtbl.t;
      (* (kernel, variant, input) -> Pp digest of its cold compile, taken
         outside the timed set-up for the prewarm keys *)
}

let key op = (op.kernel, op.variant, op.input)
let prog_digest prog = Digest.string (Spec_ir.Pp.prog_to_string prog)

(* The profile evidence a compile of [src] gets: profile ops bind the
   kernel's stored profile to the freshly lowered source, as
   `speccc run --profile-in` does. *)
let evidence st op src =
  match op.variant with
  | Base -> (Pipeline.Base, None, None)
  | Heuristic -> (Pipeline.Spec_heuristic, None, None)
  | Profile ->
    let store, digest = Hashtbl.find st.stores op.kernel in
    let prog0 = Trace.span "frontend" (fun () -> Spec_ir.Lower.compile src) in
    Trace.add "frontend.bytes" (float_of_int (String.length src));
    let prof, mr = Trace.span "fdo.bind" (fun () -> Store.bind store prog0) in
    Trace.add "fdo.match_num" (Store.match_rate mr);
    Trace.add "fdo.match_den" 1.;
    (Pipeline.Spec_profile prof, Some prof, Some digest)

let pass_parts (r : Pipeline.result) =
  List.map (fun ps -> (ps.Passes.ps_pass, ps.Passes.ps_time))
    r.Pipeline.report.Passes.rp_passes

(* [compile_and_optimize ~cache] split into the public calls it makes,
   so that each gets its own span. *)
let traced_compile st ~variant ~edge_profile ~profile_digest src =
  let config =
    Spec_ssapre.Ssapre.default_config (Pipeline.mode_of_variant variant)
  in
  let key, found =
    Trace.span "cache.find" (fun () ->
        let key =
          Pipeline.cache_key ~rounds ~strength ~deopt:false ~config ~variant
            ~edge_profile:(edge_profile <> None) ~profile_digest src
        in
        (key, Cache.find st.cache key))
  in
  let hit =
    match found with
    | Some data -> (
      Trace.add "artifact.bytes" (float_of_int (String.length data));
      match Trace.span "artifact.read" (fun () -> Pipeline.read_artifact data) with
      | Ok a -> Some a.Pipeline.a_prog
      | Error _ -> None)
    | None -> None
  in
  match hit with
  | Some prog -> (prog, true)
  | None ->
    let prog =
      Trace.span "frontend" (fun () -> Spec_ir.Lower.compile src)
    in
    Trace.add "frontend.bytes" (float_of_int (String.length src));
    let r =
      Trace.span ~parts:pass_parts "optimize" (fun () ->
          Pipeline.optimize ~rounds ~edge_profile ~strength prog variant)
    in
    let rp = r.Pipeline.report in
    let c = rp.Passes.rp_counters in
    Trace.add "pt.hits" (float_of_int c.Passes.points_to_hits);
    Trace.add "pt.runs" (float_of_int c.Passes.steensgaard_runs);
    Trace.add "dom.hits" (float_of_int c.Passes.dom_hits);
    Trace.add "dom.runs" (float_of_int c.Passes.dom_runs);
    List.iter
      (fun ps ->
        if ps.Passes.ps_pass = "ssapre" then
          Trace.add "ssapre.runs" (float_of_int ps.Passes.ps_runs))
      rp.Passes.rp_passes;
    let s = r.Pipeline.stats in
    Trace.add "ssapre.checks" (float_of_int s.Spec_ssapre.Ssapre.checks);
    Trace.add "ssapre.reloads" (float_of_int s.Spec_ssapre.Ssapre.reloads);
    ignore (Trace.span "vmcode" (fun () -> Lazy.force r.Pipeline.vm));
    let data = Trace.span "artifact.write" (fun () -> Pipeline.write_artifact r) in
    Trace.add "artifact.bytes" (float_of_int (String.length data));
    Trace.span "cache.store" (fun () -> Cache.store st.cache key data);
    (r.Pipeline.prog, false)

let static_insns (mp : Spec_codegen.Itl.mprog) =
  Hashtbl.fold
    (fun _ (f : Spec_codegen.Itl.mfunc) n ->
      Array.fold_left
        (fun n (b : Spec_codegen.Itl.mblock) ->
          n + List.length b.Spec_codegen.Itl.insns + 1)
        n f.Spec_codegen.Itl.mf_blocks)
    mp.Spec_codegen.Itl.mp_funcs 0

(* One op: the timed work.  Returns the optimized program and whether
   it came out of the cache. *)
let step st op src =
  let variant, edge_profile, profile_digest = evidence st op src in
  let prog, from_cache =
    if !Trace.enabled then
      traced_compile st ~variant ~edge_profile ~profile_digest src
    else
      let r =
        Pipeline.compile_and_optimize ~rounds ~strength ~edge_profile
          ~cache:st.cache ?profile_digest src variant
      in
      (r.Pipeline.prog, r.Pipeline.from_cache)
  in
  let mp = Trace.span "codegen" (fun () -> Spec_codegen.Codegen.lower prog) in
  if !Trace.enabled then
    Trace.add "codegen.static_insns" (float_of_int (static_insns mp));
  ignore (Trace.span "schedule" (fun () -> Spec_codegen.Schedule.run mp));
  (prog, from_cache)

(* Set up one pass: the stored profile of every kernel a profile op
   compiles, and an empty cache pre-warmed with the prewarm keys. *)
let setup cfg prewarm ops () =
  let cache_dir = Filename.concat cfg.dir "build-cache" in
  rm_rf cache_dir;
  let stores = Hashtbl.create 16 in
  List.iter
    (fun op ->
      if op.variant = Profile && not (Hashtbl.mem stores op.kernel) then begin
        let prog, prof, _ = Pipeline.train (W.train_source kernels.(op.kernel)) in
        let s = Store.of_profile prog prof in
        Hashtbl.replace stores op.kernel (s, Store.digest s)
      end)
    (prewarm @ ops);
  let st =
    { cache = Cache.create cache_dir; cache_dir; stores;
      expected = Hashtbl.create 1024 }
  in
  List.iter
    (fun op ->
      let prog, _ = step st op (source op) in
      Hashtbl.replace st.expected (key op) (lazy (prog_digest prog)))
    prewarm;
  st

let teardown st = rm_rf st.cache_dir

(* A seeded 1-in-10 sample of the cold ops, rerun from the cache on the
   vm and compared with the reference interpreter on the unoptimized
   lowering. *)
let check_sample cfg ck st cold_ops =
  let sample = Srng.split (rng cfg "build") "sample" in
  List.iter
    (fun (i, op) ->
      if Srng.below sample 10 = 0 then begin
        ck.attempted <- ck.attempted + 1;
        let src = source op in
        let variant, edge_profile, profile_digest = evidence st op src in
        let r =
          Pipeline.compile_and_optimize ~rounds ~strength ~edge_profile
            ~cache:st.cache ?profile_digest src variant
        in
        let got =
          match Spec_prof.Vm.run_program (Lazy.force r.Pipeline.vm) with
          | res -> res.Spec_prof.Interp.output
          | exception Spec_prof.Interp.Runtime_error m -> "!error " ^ m
        in
        let want =
          (Spec_prof.Interp_ref.run (Spec_ir.Lower.compile src))
            .Spec_prof.Interp_ref.output
        in
        check ck (got = want) "build op %d: vm output differs from the reference" i
      end)
    cold_ops

let run cfg ck =
  let prewarm, ops = op_list cfg in
  let ops = Array.of_list ops in
  let buf = Buffer.create 4096 in
  List.iter
    (fun op ->
      Printf.bprintf buf "%s %s %s %d\n" (kind_name op.kind)
        kernels.(op.kernel).W.name (variant_name op.variant) op.input)
    (prewarm @ Array.to_list ops);
  let pass p st =
    let durations = Array.make (Array.length ops) 0. in
    let cold_ops = ref [] in
    let cs = Cache.stats st.cache in
    let hits0 = cs.Cache.hits and misses0 = cs.Cache.misses in
    let gc0 = Gc.quick_stat () in
    Array.iteri
      (fun i op ->
        Trace.set_op (i + 1);
        let src = source op in
        let t0 = now () in
        let prog, from_cache = step st op src in
        durations.(i) <- now () -. t0;
        ck.attempted <- ck.attempted + 1;
        let d = prog_digest prog in
        match op.kind with
        | Warm ->
          check ck from_cache "build op %d: warm op missed the cache" i;
          check ck
            (Option.map Lazy.force (Hashtbl.find_opt st.expected (key op)) = Some d)
            "build op %d: warm program differs from its cold compile" i
        | Cold | Unit ->
          check ck (not from_cache) "build op %d: cold op hit the cache" i;
          Hashtbl.replace st.expected (key op) (Lazy.from_val d);
          cold_ops := (i, op) :: !cold_ops)
      ops;
    let gc = gc_delta gc0 in
    let hits = cs.Cache.hits - hits0 and misses = cs.Cache.misses - misses0 in
    let hit_ratio = ratio (float_of_int hits) (float_of_int (hits + misses)) in
    if p = n_passes - 1 then begin
      let traced = !Trace.enabled in
      Trace.enabled := false;
      check_sample cfg ck st (List.rev !cold_ops);
      Trace.enabled := traced
    end;
    (durations, gc, hit_ratio)
  in
  let results, setup_s =
    passes ~k:n_passes ~setup:(setup cfg prewarm (Array.to_list ops)) ~teardown ~pass
  in
  let durations = best (List.map (fun (d, _, _) -> d) results) in
  let last_d, (alloc_w, majors), hit_ratio = List.nth results (n_passes - 1) in
  let n = float_of_int (Array.length last_d) in
  let c = Trace.counter in
  let layer =
    busy_metrics ()
    @ trace_metrics
        ~pass_times:(List.map (fun (d, _, _) -> Array.fold_left ( +. ) 0. d) results)
    @ [ "frontend.kb_lowered", c "frontend.bytes" /. 1024.;
        "alias.points_to_reuse", ratio (c "pt.hits") (c "pt.hits" +. c "pt.runs");
        "ssa.dom_reuse", ratio (c "dom.hits") (c "dom.hits" +. c "dom.runs");
        "ssapre.runs", c "ssapre.runs";
        "ssapre.checks", c "ssapre.checks";
        "ssapre.reloads", c "ssapre.reloads";
        "codegen.static_insns", c "codegen.static_insns";
        "artifact.kb", c "artifact.bytes" /. 1024.;
        "cache.hit_ratio", hit_ratio;
        "fdo.match_ratio", ratio (c "fdo.match_num") (c "fdo.match_den");
        "gc.alloc_mw_per_op", alloc_w /. n /. 1e6;
        "gc.major", float_of_int majors ]
  in
  { digest = digest_of_buffer buf;
    metrics =
      ("setup_s", setup_s) :: ("peak_rss_mb", peak_rss_mb 0)
      :: closed_loop_metrics durations
      @ layer;
    samples = Array.length durations }

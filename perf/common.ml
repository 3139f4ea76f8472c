(* What every workload shares: the metric catalogue, the run
   configuration, output checks, seeded input decks, the run directory
   and the measurement helpers. *)

module Srng = Spec_stress.Srng

(* ---- metric catalogue ---- *)

(* The names and units printed for an untraced run ([end_to_end]) and a
   traced run ([per_layer]; the serve workload adds [Serve.layer]).
   BENCHMARK.json lists [end_to_end] and [per_layer] with the same names
   and units; test_specbench.ml checks that they agree. *)
let end_to_end =
  [ "setup_s", "s";
    "throughput_ops_s", "ops/s";
    "latency_p50_ms", "ms";
    "latency_tail_ms", "ms";
    "peak_rss_mb", "MB" ]

let per_layer =
  [ "frontend.busy_s", "s"; "frontend.kb_lowered", "kB";
    "alias.busy_s", "s"; "alias.points_to_reuse", "ratio";
    "spec.flags_busy_s", "s";
    "ssa.busy_s", "s"; "ssa.dom_reuse", "ratio";
    "ssapre.busy_s", "s"; "ssapre.runs", "count"; "ssapre.checks", "count";
    "ssapre.reloads", "count";
    "store_promo.busy_s", "s"; "strength.busy_s", "s"; "cleanup.busy_s", "s";
    "codegen.busy_s", "s"; "codegen.static_insns", "count";
    "schedule.busy_s", "s";
    "vmcode.busy_s", "s";
    "artifact.write_busy_s", "s"; "artifact.read_busy_s", "s";
    "artifact.kb", "kB";
    "cache.find_busy_s", "s"; "cache.store_busy_s", "s";
    "cache.hit_ratio", "ratio";
    "fdo.of_profile_busy_s", "s"; "fdo.write_busy_s", "s";
    "fdo.read_busy_s", "s"; "fdo.merge_busy_s", "s"; "fdo.bind_busy_s", "s";
    "fdo.match_ratio", "ratio"; "fdo.store_kb", "kB";
    "prof.busy_s", "s"; "prof.msteps_s", "Msteps/s";
    "vm.spec_busy_s", "s"; "vm.base_busy_s", "s";
    "vm.spec_msteps_s", "Msteps/s"; "vm.base_msteps_s", "Msteps/s";
    "vm.checks", "count"; "vm.check_misses", "count";
    "machine.resolve_busy_s", "s"; "machine.inorder_busy_s", "s";
    "machine.inorder_minsn_s", "Minsn/s"; "machine.ooo_busy_s", "s";
    "machine.ooo_minsn_s", "Minsn/s"; "machine.ooo_mcycles", "Mcycles";
    "machine.sim_mcycles", "Mcycles"; "machine.spec_cycles_ratio", "ratio";
    "gc.alloc_mw_per_op", "Mwords"; "gc.major", "count";
    "trace.overhead_pct", "%"; "trace.attributed_pct", "%" ]

(* Span name -> the per-layer busy metric its self time counts toward.
   Pass names are the pass manager's; the rest are the spans the
   workloads open around public calls. *)
let busy_metric = function
  | "frontend" -> Some "frontend.busy_s"
  | "annotate" -> Some "alias.busy_s"
  | "flags" -> Some "spec.flags_busy_s"
  | "split-edges" | "build-ssa" | "refine" | "out-of-ssa" -> Some "ssa.busy_s"
  | "ssapre" -> Some "ssapre.busy_s"
  | "store-promo" -> Some "store_promo.busy_s"
  | "strength" -> Some "strength.busy_s"
  | "cleanup" -> Some "cleanup.busy_s"
  | "codegen" -> Some "codegen.busy_s"
  | "schedule" -> Some "schedule.busy_s"
  | "vmcode" -> Some "vmcode.busy_s"
  | "artifact.write" -> Some "artifact.write_busy_s"
  | "artifact.read" -> Some "artifact.read_busy_s"
  | "cache.find" -> Some "cache.find_busy_s"
  | "cache.store" -> Some "cache.store_busy_s"
  | "fdo.of_profile" -> Some "fdo.of_profile_busy_s"
  | "fdo.write" -> Some "fdo.write_busy_s"
  | "fdo.read" -> Some "fdo.read_busy_s"
  | "fdo.merge" -> Some "fdo.merge_busy_s"
  | "fdo.bind" -> Some "fdo.bind_busy_s"
  | "prof" -> Some "prof.busy_s"
  | "vm.spec" -> Some "vm.spec_busy_s"
  | "vm.base" -> Some "vm.base_busy_s"
  | "machine.resolve" -> Some "machine.resolve_busy_s"
  | "machine.inorder" -> Some "machine.inorder_busy_s"
  | "machine.ooo" -> Some "machine.ooo_busy_s"
  | "proto.encode" -> Some "proto.encode_busy_s"
  | "proto.decode" -> Some "proto.decode_busy_s"
  | _ -> None

(* Busy metrics from the recorded spans, summed over span names. *)
let busy_metrics () =
  let acc = Hashtbl.create 32 in
  Hashtbl.iter
    (fun name self ->
      match busy_metric name with
      | Some m ->
        Hashtbl.replace acc m
          (self +. Option.value ~default:0. (Hashtbl.find_opt acc m))
      | None -> ())
    (Trace.self_times !Trace.spans);
  Hashtbl.fold (fun m v l -> (m, v) :: l) acc []

let ratio a b = if b > 0. then a /. b else 0.

(* ---- run configuration ---- *)

type cfg = {
  seed : int;
  seconds : float;  (* nominal measured time: sizes each workload's work *)
  speccc : string;  (* the speccc binary the serve workload spawns *)
  dir : string;     (* this run's scratch directory *)
}

(* ---- output checks ---- *)

(* Each op and each after-the-fact check counts as attempted; a failed
   check counts against [failed] and never aborts the run.  The first
   few messages go to stderr. *)
type checks = { mutable attempted : int; mutable failed : int }

let checks () = { attempted = 0; failed = 0 }

let fail ck fmt =
  Printf.ksprintf
    (fun msg ->
      ck.failed <- ck.failed + 1;
      if ck.failed <= 10 then prerr_endline ("specbench: check failed: " ^ msg))
    fmt

let check ck ok fmt =
  Printf.ksprintf (fun msg -> if not ok then fail ck "%s" msg) fmt

(* ---- seeded inputs ---- *)

let rng cfg workload = Srng.of_path cfg.seed [ "specbench"; workload ]

(* Draws that cycle through a fixed multiset of items, reshuffled by the
   seed on every pass.  Every prefix of the draw sequence holds the
   items in their listed proportions (to within one pass), so the seed
   changes order and inputs but never the workload's mix. *)
let deck rng (items : 'a array) : unit -> 'a =
  let cur = Array.copy items in
  let i = ref (Array.length cur) in
  fun () ->
    if !i >= Array.length cur then begin
      for k = Array.length cur - 1 downto 1 do
        let j = Srng.below rng (k + 1) in
        let t = cur.(k) in
        cur.(k) <- cur.(j);
        cur.(j) <- t
      done;
      i := 0
    end;
    let x = cur.(!i) in
    incr i;
    x

(* A fresh program-input seed; distinct within one [fresh_seed] stream. *)
let fresh_seed rng =
  let seen = Hashtbl.create 64 in
  fun () ->
    let rec go () =
      let s = 1 + Srng.below rng 999_999_999 in
      if Hashtbl.mem seen s then go ()
      else begin
        Hashtbl.add seen s ();
        s
      end
    in
    go ()

(* The pipeline's default knobs, spelled out because [Pipeline.cache_key]
   and the service protocol take them explicitly. *)
let rounds = 3
let strength = true

let kernels = Array.of_list Spec_workloads.Workloads.all

let kernel_ix name =
  let rec go i =
    if kernels.(i).Spec_workloads.Workloads.name = name then i else go (i + 1)
  in
  go 0

(* ---- run directory ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> (try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

(* ---- measurement helpers ---- *)

let now = Unix.gettimeofday

(* Peak resident set (VmHWM) of a process, in MB; 0 when unreadable. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec go () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
      | _ -> go ()
      | exception End_of_file -> 0.
    in
    let v = go () in
    close_in ic;
    v

(* A shared host can slow a process by tens of percent for seconds at a
   time, so a workload measures its op list in several passes and keeps
   each op's best time: an op reads slow only if every pass hit a slow
   spell at that op.  [passes] runs [k] passes, each after its own [setup ()]
   (timed) and followed by [teardown]; it returns the passes' results
   in order and the median set-up time.  Only the last pass's ops are
   traced, so a traced run's per-layer numbers describe one pass and
   the passes before it are its untraced baseline. *)
let passes ~k ~setup ~teardown ~pass =
  let traced = !Trace.enabled in
  Trace.enabled := false;
  let times = ref [] in
  let results =
    List.init k (fun p ->
        let t0 = now () in
        let st = setup () in
        times := (now () -. t0) :: !times;
        Trace.enabled := traced && p = k - 1;
        let r = pass p st in
        Trace.enabled := false;
        teardown st;
        r)
  in
  Trace.enabled := traced;
  (results, Stats.median !times)

(* Each op's best duration over the passes. *)
let best (runs : float array list) =
  match runs with
  | [] -> [||]
  | r :: rest ->
    let b = Array.copy r in
    List.iter (Array.iteri (fun i d -> if d < b.(i) then b.(i) <- d)) rest;
    b

(* OCaml runtime allocation and major collections since [base]. *)
let gc_delta (base : Gc.stat) =
  let s = Gc.quick_stat () in
  ( s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
    -. (base.Gc.minor_words +. base.Gc.major_words -. base.Gc.promoted_words),
    s.Gc.major_collections - base.Gc.major_collections )

(* What a workload hands back: its metrics (end-to-end and per-layer,
   by catalogue name), the op-list digest, and how many latency samples
   its percentiles rest on. *)
type outcome = {
  digest : string;
  metrics : (string * float) list;
  samples : int;
}

(* The median and the tail percentile of ascending latencies, in ms. *)
let latency_metrics a =
  [ "latency_p50_ms", Stats.percentile a 0.5;
    "latency_tail_ms", Stats.percentile a (Stats.tail (Array.length a)) ]

(* The throughput and latency metrics of a closed loop, from its per-op
   durations in seconds. *)
let closed_loop_metrics (durations : float array) =
  let a = Stats.sorted (List.map (fun d -> d *. 1000.) (Array.to_list durations)) in
  let total = Array.fold_left ( +. ) 0. durations in
  ("throughput_ops_s", ratio (float_of_int (Array.length durations)) total)
  :: latency_metrics a

(* Tracing cost and coverage of a closed loop: the traced pass's op time
   against the median untraced pass, and the share of the traced op
   time that the layers' self times account for. *)
let trace_metrics ~(pass_times : float list) =
  match List.rev pass_times with
  | traced :: (_ :: _ as untraced) ->
    let op_spans = List.filter (fun s -> s.Trace.op > 0) !Trace.spans in
    let attributed =
      Hashtbl.fold
        (fun name self acc -> if busy_metric name <> None then acc +. self else acc)
        (Trace.self_times op_spans) 0.
    in
    [ "trace.overhead_pct", 100. *. (ratio traced (Stats.median untraced) -. 1.);
      "trace.attributed_pct", 100. *. ratio attributed traced ]
  | _ -> []

let digest_of_buffer b = Digest.to_hex (Digest.string (Buffer.contents b))

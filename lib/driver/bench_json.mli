(** Machine-readable bench dump (schema [specpre-bench/8]): emission,
    parsing, and validation.  See [bench/main.ml] for the harness side
    and [test/test_stress.ml] for the golden schema check.

    /8 has one interpreter engine: variant rows carry no [engine] label,
    and the [engines] section compares the tree-walking oracle with the
    vm ([tree_wall_s], [tree_over_vm] and [geomean_tree_over_vm] are
    gone).  Rows carry in-order counters and no [backend] label; older /8
    dumps with the label still validate.  /7 dumps no longer validate. *)

(** The schema tag emitted and required by this build,
    ["specpre-bench/8"]. *)
val schema_tag : string

(** {1 Emission} *)

val workload_json :
  Spec_workloads.Workloads.workload -> Experiments.bench_result -> string

val stress_json : seed:int -> Experiments.stress_cell list -> string

(** The [--table backends] comparison as a JSON object: one entry per
    workload pairing the in-order and OoO results for the same source —
    paper metrics per backend, OoO LSQ replays on base vs speculative
    code, and [hw_captured_pts] (in-order speedup − OoO speedup). *)
val backends_json :
  (Experiments.bench_result * Experiments.bench_result) list -> string

(** The engine-throughput sweep as a JSON object: per-workload wall
    times for the tree-walking oracle and the threaded-code vm, plus
    the geometric-mean speedup. *)
val engines_json : Experiments.engine_cell list -> string

(** The OoO memory-dependence-predictor sweep as a JSON object. *)
val mdp_json : Experiments.mdp_cell list -> string

(** The warm-vs-cold compile-cache sweep as a JSON object. *)
val fdo_json : Experiments.fdo_result list -> string

(** The [--compile-bench] throughput sweep as a JSON object: parallel
    domain count, aggregate speedup, and one cell per workload with the
    sequential compile's pass breakdown. *)
val compile_json : Experiments.compile_result list -> string

(** The speculative-safety sweep as a JSON object: the interference
    plan, plus one cell per (workload, speculative variant) with the
    checker verdict, stable site keys, and reload-vs-deopt recovery
    costs. *)
val safety_json : seed:int -> Experiments.safety_cell list -> string

(** Assemble the top-level dump from pre-rendered section blobs.
    [date] is supplied by the caller so the library stays clock-free. *)
val dump :
  date:string -> inputs:string -> jobs:int -> harness_wall_s:float ->
  ?pre_pr2_quick_wall_s:float -> ?backends:string -> ?engines:string ->
  ?mdp:string -> ?stress:string ->
  ?fdo:string -> ?compile:string -> ?safety:string -> ?service:string ->
  string list -> string

(** {1 Parsing} *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse : string -> (json, string) result

(** {1 Schema validation} *)

(** Validate a parsed dump against the pinned [specpre-bench/8] shape:
    every field name and type of the top level, workload entries,
    variant counters, metrics, pass reports, and (when present) the
    [backends], [engines], [mdp], [stress], [fdo], [compile], [safety]
    and [service] sections.  Sections of any other name are skipped.
    Older schema tags are rejected. *)
val validate : json -> (unit, string) result

(** Parse and validate in one step. *)
val check : string -> (unit, string) result

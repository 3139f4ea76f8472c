(** The bench record (schema [specpre-bench/9]) and the JSON reader and
    printer it is written with.  See [bench/main.ml] for the harness
    side and [test/bench_record.json] for the golden record.

    The record holds deterministic counters only, so the same flags
    print the same bytes at any [--jobs]. *)

(** The schema tag of the record this build prints,
    ["specpre-bench/9"]. *)
val schema_tag : string

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse : string -> (json, string) result

(** Print a value: floats with three decimals, one array element per
    line.  [parse (to_string v)] gives [v] back when [v]'s floats have
    three decimals or fewer. *)
val to_string : json -> string

(** {1 Record sections} *)

val workload_json : Experiments.bench_result -> json

(** The [--table backends] comparison: one entry per workload pairing
    the in-order and OoO results for the same source. *)
val backends_json :
  (Experiments.bench_result * Experiments.bench_result) list -> json

val mdp_json : Experiments.mdp_cell list -> json
val stress_json : seed:int -> Experiments.stress_cell list -> json
val fdo_json : Experiments.fdo_result list -> json
val safety_json : seed:int -> Experiments.safety_cell list -> json

(** [record ~inputs sections] is the whole record: the schema tag, the
    input set ([train]/[ref]), then [sections] in the order given. *)
val record : inputs:string -> (string * json) list -> json

(** The bench record (schema [specpre-bench/9]) and the JSON reader and
    printer it is written with.

    [bench/main.exe --json] prints the record on stdout.  It holds the
    harness's deterministic counters only — machine counters per
    variant, the paper metrics, pass reports, and the backends, mdp,
    stress, fdo and safety sweeps — so the same flags print the same
    bytes at any [--jobs].  [test/bench_record.json] pins one such
    record byte for byte, shape included.  Wall-clock numbers belong to
    [perf/].

    The reader is a small recursive-descent JSON parser (no external
    JSON dependency in the tree); [perf/] reads [BENCHMARK.json] and its
    result lines through it.  The printer writes what the reader reads
    back to the same value: every float with three decimals, and every
    array element on its own line, so that a changed counter diffs as
    one line. *)

open Spec_machine

let schema_tag = "specpre-bench/9"

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let add_str buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when c < ' ' -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec add_json buf indent = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (Bool.to_string b)
  | Int i -> Buffer.add_string buf (Int.to_string i)
  | Float f -> Printf.bprintf buf "%.3f" f
  | Str s -> add_str buf s
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr items ->
    let inner = indent ^ "  " in
    List.iteri
      (fun i v ->
        Buffer.add_string buf (if i = 0 then "[\n" else ",\n");
        Buffer.add_string buf inner;
        add_json buf inner v)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf indent;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_str buf k;
        Buffer.add_char buf ':';
        add_json buf indent v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 65536 in
  add_json buf "" v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Sections                                                            *)
(* ------------------------------------------------------------------ *)

let ints kvs = List.map (fun (k, v) -> (k, Int v)) kvs

(* [key], holding one array element per item of [xs] *)
let rows key f xs = (key, Arr (List.map f xs))

let report_json (r : Passes.report) =
  let c = r.Passes.rp_counters in
  Obj
    [ rows "passes"
        (fun (st : Passes.pass_stat) ->
          Obj
            [ "name", Str st.Passes.ps_pass;
              "runs", Int st.Passes.ps_runs;
              "touched", Int st.Passes.ps_touched;
              "stats", Obj (ints st.Passes.ps_counters) ])
        r.Passes.rp_passes;
      ( "analyses",
        Obj
          (ints
             [ "steensgaard_runs", c.Passes.steensgaard_runs;
               "modref_runs", c.Passes.modref_runs;
               "annot_runs", c.Passes.annot_runs;
               "dom_runs", c.Passes.dom_runs;
               "safety_runs", c.Passes.safety_runs;
               "points_to_hits", c.Passes.points_to_hits;
               "annot_hits", c.Passes.annot_hits;
               "dom_hits", c.Passes.dom_hits;
               "safety_hits", c.Passes.safety_hits ]) );
      "verified", Int r.Passes.rp_verified ]

let variant_json (name, (r : Experiments.run)) =
  let p = r.Experiments.r_machine.Machine.perf in
  Obj
    (("variant", Str name)
     :: ints
          [ "cycles", p.Machine.cycles;
            "insns", p.Machine.insns;
            "data_cycles", p.Machine.data_cycles;
            "loads_retired", Machine.loads_retired p;
            "checks", p.Machine.checks;
            "check_misses", p.Machine.check_misses;
            "br_mispredicts", p.Machine.br_mispredicts;
            "lsq_replays", p.Machine.lsq_replays ])

(** One workload: machine counters per variant, the paper metrics on the
    profile variant, and the pass reports of the measured compiles of
    the four optimizing variants. *)
let workload_json (b : Experiments.bench_result) =
  let open Experiments in
  let base = b.base and spec = b.prof_spec in
  let optimized =
    [ "base", b.base; "profile", b.prof_spec; "heuristic", b.heur_spec;
      "aggressive", b.aggressive ]
  in
  Obj
    [ "name", Str b.wname;
      rows "variants" variant_json (("noopt", b.noopt) :: optimized);
      ( "metrics",
        Obj
          [ "load_reduction_pct", Float (load_reduction ~base ~spec);
            "speedup_pct", Float (speedup ~base ~spec);
            "data_cycle_reduction_pct", Float (data_cycle_reduction ~base ~spec);
            "check_pct", Float (check_pct spec);
            "misspec_pct", Float (misspec_ratio spec);
            "reuse_potential_pct", Float (pct b.build.reuse_frac) ] );
      rows "passes"
        (fun (name, r) ->
          Obj [ "variant", Str name; "report", report_json r.r_report ])
        optimized ]

(** The in-order-vs-OoO comparison: per workload, each core's paper
    metrics, the OoO core's LSQ replays on base vs speculative code, and
    the speedup points the hardware captures on its own
    ([hw_captured_pts] = in-order speedup − OoO speedup). *)
let backends_json pairs =
  let open Experiments in
  let win b = speedup ~base:b.base ~spec:b.prof_spec in
  let dcyc b = data_cycle_reduction ~base:b.base ~spec:b.prof_spec in
  let replays r = r.r_machine.Machine.perf.Machine.lsq_replays in
  Obj
    [ rows "workloads"
        (fun (inorder, ooo) ->
          Obj
            [ "name", Str inorder.wname;
              ( "inorder",
                Obj
                  [ "speedup_pct", Float (win inorder);
                    "data_cycle_reduction_pct", Float (dcyc inorder) ] );
              ( "ooo",
                Obj
                  [ "speedup_pct", Float (win ooo);
                    "data_cycle_reduction_pct", Float (dcyc ooo);
                    "replays_base", Int (replays ooo.base);
                    "replays_spec", Int (replays ooo.prof_spec) ] );
              "hw_captured_pts", Float (win inorder -. win ooo) ])
        pairs ]

(** The memory-dependence-predictor sweep: one cell per (workload,
    policy) on the OoO core. *)
let mdp_json (cells : Experiments.mdp_cell list) =
  let open Experiments in
  Obj
    [ rows "cells"
        (fun c ->
          Obj
            [ "workload", Str c.md_wname;
              "mdp", Str (mdp_name c.md_policy);
              "cycles", Int c.md_cycles;
              "insns", Int c.md_insns;
              "lsq_replays", Int c.md_replays;
              "vs_none_pct", Float (mdp_overhead cells c) ])
        cells ]

(** The [--stress] sweep: the seed plus one cell per (workload, grid
    point, variant), in sweep order. *)
let stress_json ~seed (cells : Experiments.stress_cell list) =
  let open Experiments in
  Obj
    [ "seed", Int seed;
      rows "cells"
        (fun c ->
          Obj
            [ "workload", Str c.sc_workload;
              "point", Str c.sc_point;
              "variant", Str c.sc_variant;
              "adv_flips", Int c.sc_adv_flips;
              "checks", Int c.sc_checks;
              "check_misses", Int c.sc_misses;
              "hit_rate_pct", Float (stress_hit_rate c);
              "cycles", Int c.sc_cycles;
              "insns", Int c.sc_insns;
              "cycle_overhead_pct", Float (stress_overhead cells c);
              "machine_flushes", Int c.sc_m_flushes;
              "machine_invalidations", Int c.sc_m_invs;
              "interp_checks", Int c.sc_i_checks;
              "interp_reloads", Int c.sc_i_reloads;
              "interp_flushes", Int c.sc_i_flushes;
              "interp_invalidations", Int c.sc_i_invs ])
        cells ]

(** The warm-vs-cold compile-cache sweep: cache counters, pass runs and
    the warm compile's verdicts per workload. *)
let fdo_json (cells : Experiments.fdo_result list) =
  let open Experiments in
  Obj
    [ rows "workloads"
        (fun f ->
          Obj
            [ "workload", Str f.f_wname;
              "hits", Int f.f_hits;
              "misses", Int f.f_misses;
              "stores", Int f.f_stores;
              "evictions", Int f.f_evictions;
              "cold_pass_runs", Int f.f_cold_passes;
              "warm_pass_runs", Int f.f_warm_passes;
              "warm_hit", Bool f.f_warm_hit;
              "identical", Bool f.f_identical;
              "match_rate", Float f.f_match_rate ])
        cells ]

(** The speculative-safety sweep: the interference plan the recovery
    comparison ran under, and one cell per (workload, speculative
    variant) with the checker's verdict, its stable site keys, and the
    reload-vs-deopt recovery costs. *)
let safety_json ~seed (cells : Experiments.safety_cell list) =
  let open Experiments in
  Obj
    [ "seed", Int seed;
      "fault_plan", Str (Spec_stress.Faults.to_string (safety_fault_plan ~seed));
      rows "cells"
        (fun c ->
          Obj
            [ "workload", Str c.sf_wname;
              "variant", Str c.sf_variant;
              "verdict", Str c.sf_verdict;
              "confirmed", Int c.sf_confirmed;
              "plausible", Int c.sf_plausible;
              rows "sites" (fun s -> Str s) c.sf_sites;
              "checks", Int c.sf_checks;
              "reloads", Int c.sf_reloads;
              "reload_steps", Int c.sf_reload_steps;
              "deopts", Int c.sf_deopts;
              "deopt_steps", Int c.sf_deopt_steps ])
        cells ]

(** The whole record: the schema tag, the input set ([train]/[ref]),
    then [sections] in the order given. *)
let record ~inputs sections =
  Obj (("schema", Str schema_tag) :: ("inputs", Str inputs) :: sections)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let parse (s : string) : (json, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "at %d: %s" !pos msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %c, got %c" c c')
    | None -> fail (Printf.sprintf "expected %c, got end of input" c)
  in
  let literal word v =
    if !pos + String.length word <= n
       && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char buf '"'; advance ()
         | Some '\\' -> Buffer.add_char buf '\\'; advance ()
         | Some '/' -> Buffer.add_char buf '/'; advance ()
         | Some 'n' -> Buffer.add_char buf '\n'; advance ()
         | Some 't' -> Buffer.add_char buf '\t'; advance ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance ()
         | Some 'b' -> Buffer.add_char buf '\b'; advance ()
         | Some 'f' -> Buffer.add_char buf '\012'; advance ()
         | Some 'u' ->
           advance ();
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 0x80 ->
              Buffer.add_char buf (Char.chr code)
            | Some _ ->
              (* the printer never produces non-ASCII escapes *)
              Buffer.add_string buf ("\\u" ^ hex)
            | None -> fail "bad \\u escape");
           pos := !pos + 4
         | _ -> fail "bad escape");
        go ()
      | Some c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') -> advance (); go ()
      | Some ('.' | 'e' | 'E') -> is_float := true; advance (); go ()
      | _ -> ()
    in
    go ();
    let tok = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %s" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> fail (Printf.sprintf "bad number %s" tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or } in object"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Arr [] end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ] in array"
        in
        elements ();
        Arr (List.rev !items)
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %c" c)
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing data at %d" !pos)
    else Ok v
  with Parse_error msg -> Error msg

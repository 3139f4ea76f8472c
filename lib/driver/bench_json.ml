(** Machine-readable bench dump (schema [specpre-bench/8]): emission,
    parsing, and validation.

    The [--json] harness mode writes a trajectory record
    ([BENCH_<date>.json]) that later PRs diff against, so its shape is a
    contract: {!validate} pins the field names and types of every
    section, and the test suite golden-checks both the committed
    baselines and a freshly emitted dump against it.  The parser is a
    small recursive-descent JSON reader (no external JSON dependency in
    the tree) that accepts exactly the JSON subset the emitter produces
    plus standard escapes.

    Schema history:
    - [/4] added the [engines] throughput section and the [mdp] section
      sweeping the OoO core's memory-dependence predictors;
    - [/5] added the optional [service] section: the compile-service
      traffic replay ([bench/main.exe --traffic]) — request mix,
      cold/warm/joined split, online-FDO reports and drift-triggered
      recompiles, divergence count (always 0), p50/p99 latency and
      throughput;
    - [/6] added the [safety] section: the speculative-taint checker's
      verdict per (workload, speculative variant) plus the recovery-cost
      comparison (check misses recovered by reloading vs by
      deoptimizing, under one forced interference plan);
    - [/7] added the [service] section's required [parked] counter,
      and a section for an in-process multi-core router, since removed
      ({!validate} skips it like any section it does not know);
    - [/8] (current) has one interpreter engine: variant rows lose their
      [engine] label, and the [engines] section compares the
      tree-walking oracle with the vm only ([tree_wall_s],
      [tree_over_vm] and [geomean_tree_over_vm] are gone).  Rows carry
      in-order counters only; the OoO core appears in the [backends]
      and [mdp] sections.  Dumps written while rows still had a
      [backend] label, some with OoO rows, validate as they are:
      {!validate} ignores fields it does not ask for.

    /7 and older dumps are rejected. *)

open Spec_workloads

let schema_tag = "specpre-bench/8"

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let variant_json name (r : Experiments.run) =
  let open Spec_machine in
  let p = r.Experiments.r_machine.Machine.perf in
  Printf.sprintf
    "{\"variant\":%S,\"wall_s\":%.6f,\"cycles\":%d,\
     \"insns\":%d,\"data_cycles\":%d,\"loads_retired\":%d,\"checks\":%d,\
     \"check_misses\":%d,\"br_mispredicts\":%d,\"lsq_replays\":%d}"
    name r.Experiments.r_wall_s p.Machine.cycles p.Machine.insns
    p.Machine.data_cycles
    (Machine.loads_retired p)
    p.Machine.checks p.Machine.check_misses p.Machine.br_mispredicts
    p.Machine.lsq_replays

(** One workload's JSON object: wall time per phase, machine counters per
    variant, the paper metrics, and the pass manager's per-pass reports
    (timings + statistics + analysis-cache counters, on the train
    compile). *)
let workload_json (w : Workloads.workload) (b : Experiments.bench_result) =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\"name\":%S,\"wall_s\":%.6f,\"profile_wall_s\":%.6f,\"variants\":["
    b.Experiments.wname b.Experiments.total_wall_s b.Experiments.prof_wall_s;
  List.iteri
    (fun i (name, r) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (variant_json name r))
    [ "noopt", b.Experiments.noopt; "base", b.Experiments.base;
      "profile", b.Experiments.prof_spec;
      "heuristic", b.Experiments.heur_spec;
      "aggressive", b.Experiments.aggressive ];
  Printf.bprintf buf
    "],\"metrics\":{\"load_reduction_pct\":%.3f,\"speedup_pct\":%.3f,\
     \"data_cycle_reduction_pct\":%.3f,\"check_pct\":%.3f,\
     \"misspec_pct\":%.3f,\"reuse_potential_pct\":%.3f},\"passes\":["
    (Experiments.load_reduction ~base:b.Experiments.base
       ~spec:b.Experiments.prof_spec)
    (Experiments.speedup ~base:b.Experiments.base
       ~spec:b.Experiments.prof_spec)
    (Experiments.data_cycle_reduction ~base:b.Experiments.base
       ~spec:b.Experiments.prof_spec)
    (Experiments.check_pct b.Experiments.prof_spec)
    (Experiments.misspec_ratio b.Experiments.prof_spec)
    (100. *. b.Experiments.reuse_frac);
  let src = Workloads.train_source w in
  (* the harness profiled this workload already — reuse its training
     profile rather than running the interpreter a second time *)
  let prof = b.Experiments.train_profile in
  List.iteri
    (fun j (vname, v) ->
      if j > 0 then Buffer.add_char buf ',';
      let r = Pipeline.compile_and_optimize ~edge_profile:(Some prof) src v in
      Printf.bprintf buf "{\"variant\":%S,\"report\":%s}" vname
        (Passes.report_to_json r.Pipeline.report))
    [ "base", Pipeline.Base; "profile", Pipeline.Spec_profile prof;
      "heuristic", Pipeline.Spec_heuristic;
      "aggressive", Pipeline.Aggressive ];
  Buffer.add_string buf "]}";
  Buffer.contents buf

let stress_cell_json (cells : Experiments.stress_cell list)
    (c : Experiments.stress_cell) =
  Printf.sprintf
    "{\"workload\":%S,\"point\":%S,\"variant\":%S,\"adv_flips\":%d,\
     \"checks\":%d,\"check_misses\":%d,\"hit_rate_pct\":%.3f,\
     \"cycles\":%d,\"insns\":%d,\"cycle_overhead_pct\":%.3f,\
     \"machine_flushes\":%d,\"machine_invalidations\":%d,\
     \"interp_checks\":%d,\"interp_reloads\":%d,\"interp_flushes\":%d,\
     \"interp_invalidations\":%d}"
    c.Experiments.sc_workload c.Experiments.sc_point c.Experiments.sc_variant
    c.Experiments.sc_adv_flips c.Experiments.sc_checks
    c.Experiments.sc_misses
    (Experiments.stress_hit_rate c)
    c.Experiments.sc_cycles c.Experiments.sc_insns
    (Experiments.stress_overhead cells c)
    c.Experiments.sc_m_flushes c.Experiments.sc_m_invs
    c.Experiments.sc_i_checks c.Experiments.sc_i_reloads
    c.Experiments.sc_i_flushes c.Experiments.sc_i_invs

(** The [--stress] sweep as a JSON object: the seed plus one flat cell
    per (workload, grid point, variant), in sweep order. *)
let stress_json ~seed (cells : Experiments.stress_cell list) =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\"seed\":%d,\"cells\":[" seed;
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (stress_cell_json cells c))
    cells;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let backends_entry_json ~(inorder : Experiments.bench_result)
    ~(ooo : Experiments.bench_result) =
  let open Spec_machine in
  let replays (r : Experiments.run) =
    r.Experiments.r_machine.Machine.perf.Machine.lsq_replays
  in
  let win (b : Experiments.bench_result) =
    Experiments.speedup ~base:b.Experiments.base
      ~spec:b.Experiments.prof_spec
  in
  Printf.sprintf
    "{\"name\":%S,\"inorder\":{\"speedup_pct\":%.3f,\
     \"data_cycle_reduction_pct\":%.3f},\"ooo\":{\"speedup_pct\":%.3f,\
     \"data_cycle_reduction_pct\":%.3f,\"replays_base\":%d,\
     \"replays_spec\":%d},\"hw_captured_pts\":%.3f}"
    inorder.Experiments.wname (win inorder)
    (Experiments.data_cycle_reduction ~base:inorder.Experiments.base
       ~spec:inorder.Experiments.prof_spec)
    (win ooo)
    (Experiments.data_cycle_reduction ~base:ooo.Experiments.base
       ~spec:ooo.Experiments.prof_spec)
    (replays ooo.Experiments.base)
    (replays ooo.Experiments.prof_spec)
    (win inorder -. win ooo)

(** The [--table backends] in-order-vs-OoO comparison as a JSON object:
    one entry per workload pairing the two backends' paper metrics, the
    OoO core's LSQ replay counts on base vs speculative code, and the
    speedup points the hardware captures on its own
    ([hw_captured_pts] = in-order speedup − OoO speedup). *)
let backends_json (pairs :
    (Experiments.bench_result * Experiments.bench_result) list) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\"workloads\":[";
  List.iteri
    (fun i (inorder, ooo) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (backends_entry_json ~inorder ~ooo))
    pairs;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let engine_cell_json (c : Experiments.engine_cell) =
  Printf.sprintf
    "{\"workload\":%S,\"steps\":%d,\"insns\":%d,\"ref_wall_s\":%.6f,\
     \"vm_wall_s\":%.6f,\"ref_over_vm\":%.3f,\"vm_mstmt_s\":%.3f,\
     \"vm_minsn_s\":%.3f}"
    c.Experiments.e_wname c.Experiments.e_steps c.Experiments.e_insns
    c.Experiments.e_ref_s c.Experiments.e_vm_s
    (Experiments.engine_ref_over_vm c)
    (Experiments.engine_mrate c.Experiments.e_steps c.Experiments.e_vm_s)
    (Experiments.engine_mrate c.Experiments.e_insns c.Experiments.e_vm_s)

(** The engine-throughput sweep as a JSON object: per-workload wall
    times for the oracle and the vm plus the geometric-mean speedup. *)
let engines_json (cells : Experiments.engine_cell list) =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "{\"geomean_ref_over_vm\":%.3f,\"workloads\":["
    (Experiments.engine_geomean cells);
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (engine_cell_json c))
    cells;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let mdp_cell_json (cells : Experiments.mdp_cell list)
    (c : Experiments.mdp_cell) =
  Printf.sprintf
    "{\"workload\":%S,\"mdp\":%S,\"cycles\":%d,\"insns\":%d,\
     \"lsq_replays\":%d,\"vs_none_pct\":%.3f}"
    c.Experiments.md_wname
    (Experiments.mdp_name c.Experiments.md_policy)
    c.Experiments.md_cycles c.Experiments.md_insns
    c.Experiments.md_replays
    (Experiments.mdp_overhead cells c)

(** The memory-dependence-predictor sweep as a JSON object: one cell per
    (workload, policy) on the OoO core's profile-speculative build. *)
let mdp_json (cells : Experiments.mdp_cell list) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\"cells\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (mdp_cell_json cells c))
    cells;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let fdo_cell_json (f : Experiments.fdo_result) =
  Printf.sprintf
    "{\"workload\":%S,\"cold_wall_s\":%.6f,\"warm_wall_s\":%.6f,\
     \"hits\":%d,\"misses\":%d,\"stores\":%d,\"evictions\":%d,\
     \"cold_pass_runs\":%d,\"warm_pass_runs\":%d,\"warm_hit\":%b,\
     \"identical\":%b,\"match_rate\":%.6f}"
    f.Experiments.f_wname f.Experiments.f_cold_s f.Experiments.f_warm_s
    f.Experiments.f_hits f.Experiments.f_misses f.Experiments.f_stores
    f.Experiments.f_evictions f.Experiments.f_cold_passes
    f.Experiments.f_warm_passes f.Experiments.f_warm_hit
    f.Experiments.f_identical f.Experiments.f_match_rate

(** The warm-vs-cold compile-cache sweep as a JSON object. *)
let fdo_json (cells : Experiments.fdo_result list) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\"workloads\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (fdo_cell_json f))
    cells;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let compile_cell_json (c : Experiments.compile_result) =
  Printf.sprintf
    "{\"workload\":%S,\"funcs\":%d,\"seq_wall_s\":%.6f,\"par_wall_s\":%.6f,\
     \"speedup\":%.3f,\"seq_alloc_words\":%.0f,\"identical\":%b,\
     \"report\":%s}"
    c.Experiments.c_wname c.Experiments.c_funcs c.Experiments.c_seq_s
    c.Experiments.c_par_s
    (Experiments.compile_speedup c)
    c.Experiments.c_seq_alloc_w c.Experiments.c_identical
    (Passes.report_to_json c.Experiments.c_report)

(** The [--compile-bench] sweep as a JSON object: the parallel leg's
    domain count, the aggregate sweep speedup, and one cell per workload
    with the sequential compile's pass breakdown. *)
let compile_json (cells : Experiments.compile_result list) =
  let buf = Buffer.create 4096 in
  let jobs =
    match cells with c :: _ -> c.Experiments.c_jobs | [] -> 1
  in
  Printf.bprintf buf "{\"jobs\":%d,\"total_speedup\":%.3f,\"workloads\":["
    jobs
    (Experiments.compile_total_speedup cells);
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (compile_cell_json c))
    cells;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let safety_cell_json (c : Experiments.safety_cell) =
  let buf = Buffer.create 256 in
  Printf.bprintf buf
    "{\"workload\":%S,\"variant\":%S,\"verdict\":%S,\"confirmed\":%d,\
     \"plausible\":%d,\"sites\":["
    c.Experiments.sf_wname c.Experiments.sf_variant c.Experiments.sf_verdict
    c.Experiments.sf_confirmed c.Experiments.sf_plausible;
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "%S" s)
    c.Experiments.sf_sites;
  Printf.bprintf buf
    "],\"checks\":%d,\"reloads\":%d,\"reload_steps\":%d,\"deopts\":%d,\
     \"deopt_steps\":%d}"
    c.Experiments.sf_checks c.Experiments.sf_reloads
    c.Experiments.sf_reload_steps c.Experiments.sf_deopts
    c.Experiments.sf_deopt_steps;
  Buffer.contents buf

(** The speculative-safety sweep as a JSON object: the interference
    plan the recovery comparison ran under, and one cell per (workload,
    speculative variant) with the checker's verdict, its stable site
    keys, and the reload-vs-deopt recovery costs. *)
let safety_json ~seed (cells : Experiments.safety_cell list) =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\"seed\":%d,\"fault_plan\":%S,\"cells\":[" seed
    (Spec_stress.Faults.to_string (Experiments.safety_fault_plan ~seed));
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (safety_cell_json c))
    cells;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(** Assemble the top-level dump.  [workloads] are pre-rendered
    {!workload_json} blobs; [engines], [mdp], [stress], [fdo],
    [compile] and [service] are pre-rendered section blobs — the first
    five from the emitters above, [service] from
    [Spec_service.Traffic.to_json] (the service library sits above this
    one, so its emitter lives there; the validator below still pins the
    section's shape).  [date] is supplied by the caller (the library
    stays clock-free). *)
let dump ~date ~inputs ~jobs ~harness_wall_s ?pre_pr2_quick_wall_s ?backends
    ?engines ?mdp ?stress ?fdo ?compile ?safety ?service
    (workloads : string list) =
  let buf = Buffer.create 65536 in
  Printf.bprintf buf
    "{\"schema\":%S,\"date\":%S,\"inputs\":%S,\
     \"jobs\":%d,\"harness_wall_s\":%.3f,"
    schema_tag date inputs jobs harness_wall_s;
  (match pre_pr2_quick_wall_s with
   | Some w -> Printf.bprintf buf "\"pre_pr2_quick_wall_s\":%.3f," w
   | None -> ());
  Buffer.add_string buf "\"workloads\":[";
  List.iteri
    (fun i blob ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf blob)
    workloads;
  Buffer.add_string buf "]";
  (match backends with
   | Some s ->
     Buffer.add_string buf ",\"backends\":";
     Buffer.add_string buf s
   | None -> ());
  (match engines with
   | Some s ->
     Buffer.add_string buf ",\"engines\":";
     Buffer.add_string buf s
   | None -> ());
  (match mdp with
   | Some s ->
     Buffer.add_string buf ",\"mdp\":";
     Buffer.add_string buf s
   | None -> ());
  (match stress with
   | Some s ->
     Buffer.add_string buf ",\"stress\":";
     Buffer.add_string buf s
   | None -> ());
  (match fdo with
   | Some s ->
     Buffer.add_string buf ",\"fdo\":";
     Buffer.add_string buf s
   | None -> ());
  (match compile with
   | Some s ->
     Buffer.add_string buf ",\"compile\":";
     Buffer.add_string buf s
   | None -> ());
  (match safety with
   | Some s ->
     Buffer.add_string buf ",\"safety\":";
     Buffer.add_string buf s
   | None -> ());
  (match service with
   | Some s ->
     Buffer.add_string buf ",\"service\":";
     Buffer.add_string buf s
   | None -> ());
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

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
              (* the emitter never produces non-ASCII escapes *)
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

(* ------------------------------------------------------------------ *)
(* Schema validation                                                   *)
(* ------------------------------------------------------------------ *)

exception Invalid of string

(** The pinned [specpre-bench/8] shape.  A field is described by its name
    and a type tag; [`Num] accepts ints where floats are expected (JSON
    does not distinguish) but not the reverse, so counter fields stay
    integers. *)
let field path name ty fields =
  let where = String.concat "." (List.rev (name :: path)) in
  match List.assoc_opt name fields with
  | None -> raise (Invalid (Printf.sprintf "missing field %s" where))
  | Some v ->
    (match ty, v with
     | `Str, Str _ | `Int, Int _ | `Num, (Int _ | Float _)
     | `Arr, Arr _ | `Obj, Obj _ -> v
     | _ ->
       raise
         (Invalid (Printf.sprintf "field %s has the wrong type" where)))

let as_obj path what = function
  | Obj fields -> fields
  | _ ->
    raise
      (Invalid
         (Printf.sprintf "%s is not an object at %s" what
            (String.concat "." (List.rev path))))

let as_arr = function Arr items -> items | _ -> assert false

let validate_variant path v =
  let f = as_obj path "variant entry" v in
  ignore (field path "variant" `Str f);
  ignore (field path "wall_s" `Num f);
  List.iter
    (fun name -> ignore (field path name `Int f))
    [ "cycles"; "insns"; "data_cycles"; "loads_retired"; "checks";
      "check_misses"; "br_mispredicts"; "lsq_replays" ]

let validate_workload i v =
  let path = [ Printf.sprintf "workloads[%d]" i ] in
  let f = as_obj path "workload entry" v in
  ignore (field path "name" `Str f);
  ignore (field path "wall_s" `Num f);
  ignore (field path "profile_wall_s" `Num f);
  let variants = as_arr (field path "variants" `Arr f) in
  if List.length variants <> 5 then
    raise
      (Invalid
         (Printf.sprintf "workloads[%d].variants: expected 5 entries" i));
  List.iter (validate_variant ("variants" :: path)) variants;
  let metrics =
    as_obj ("metrics" :: path) "metrics" (field path "metrics" `Obj f)
  in
  List.iter
    (fun name -> ignore (field ("metrics" :: path) name `Num metrics))
    [ "load_reduction_pct"; "speedup_pct"; "data_cycle_reduction_pct";
      "check_pct"; "misspec_pct"; "reuse_potential_pct" ];
  let passes = as_arr (field path "passes" `Arr f) in
  List.iter
    (fun p ->
      let pf = as_obj ("passes" :: path) "passes entry" p in
      ignore (field ("passes" :: path) "variant" `Str pf);
      ignore (field ("passes" :: path) "report" `Obj pf))
    passes

let validate_stress_cell i v =
  let path = [ Printf.sprintf "stress.cells[%d]" i ] in
  let f = as_obj path "stress cell" v in
  List.iter
    (fun name -> ignore (field path name `Str f))
    [ "workload"; "point"; "variant" ];
  List.iter
    (fun name -> ignore (field path name `Int f))
    [ "adv_flips"; "checks"; "check_misses"; "cycles"; "insns";
      "machine_flushes"; "machine_invalidations"; "interp_checks";
      "interp_reloads"; "interp_flushes"; "interp_invalidations" ];
  List.iter
    (fun name -> ignore (field path name `Num f))
    [ "hit_rate_pct"; "cycle_overhead_pct" ]

let validate_engine_cell i v =
  let path = [ Printf.sprintf "engines.workloads[%d]" i ] in
  let f = as_obj path "engine cell" v in
  ignore (field path "workload" `Str f);
  List.iter
    (fun name -> ignore (field path name `Int f))
    [ "steps"; "insns" ];
  List.iter
    (fun name -> ignore (field path name `Num f))
    [ "ref_wall_s"; "vm_wall_s"; "ref_over_vm"; "vm_mstmt_s";
      "vm_minsn_s" ]

let validate_mdp_cell i v =
  let path = [ Printf.sprintf "mdp.cells[%d]" i ] in
  let f = as_obj path "mdp cell" v in
  ignore (field path "workload" `Str f);
  (match field path "mdp" `Str f with
   | Str s when Experiments.mdp_of_string s <> None -> ()
   | Str other ->
     raise
       (Invalid
          (Printf.sprintf "field %s.mdp: unknown predictor %S"
             (String.concat "." (List.rev path)) other))
   | _ -> assert false);
  List.iter
    (fun name -> ignore (field path name `Int f))
    [ "cycles"; "insns"; "lsq_replays" ];
  ignore (field path "vs_none_pct" `Num f)

let validate_fdo_cell i v =
  let path = [ Printf.sprintf "fdo.workloads[%d]" i ] in
  let f = as_obj path "fdo cell" v in
  ignore (field path "workload" `Str f);
  List.iter
    (fun name -> ignore (field path name `Num f))
    [ "cold_wall_s"; "warm_wall_s"; "match_rate" ];
  List.iter
    (fun name -> ignore (field path name `Int f))
    [ "hits"; "misses"; "stores"; "evictions"; "cold_pass_runs";
      "warm_pass_runs" ];
  List.iter
    (fun name ->
      match List.assoc_opt name f with
      | Some (Bool _) -> ()
      | _ ->
        raise
          (Invalid
             (Printf.sprintf "field %s.%s must be a boolean"
                (String.concat "." (List.rev path)) name)))
    [ "warm_hit"; "identical" ]

let validate_compile_cell i v =
  let path = [ Printf.sprintf "compile.workloads[%d]" i ] in
  let f = as_obj path "compile cell" v in
  ignore (field path "workload" `Str f);
  ignore (field path "funcs" `Int f);
  List.iter
    (fun name -> ignore (field path name `Num f))
    [ "seq_wall_s"; "par_wall_s"; "speedup"; "seq_alloc_words" ];
  (match List.assoc_opt "identical" f with
   | Some (Bool _) -> ()
   | _ ->
     raise
       (Invalid
          (Printf.sprintf "field %s.identical must be a boolean"
             (String.concat "." (List.rev path)))));
  ignore (field path "report" `Obj f)

let validate_backends_entry i v =
  let path = [ Printf.sprintf "backends.workloads[%d]" i ] in
  let f = as_obj path "backends entry" v in
  ignore (field path "name" `Str f);
  ignore (field path "hw_captured_pts" `Num f);
  let side name extra =
    let sf =
      as_obj (name :: path) name (field path name `Obj f)
    in
    List.iter
      (fun fl -> ignore (field (name :: path) fl `Num sf))
      [ "speedup_pct"; "data_cycle_reduction_pct" ];
    List.iter
      (fun fl -> ignore (field (name :: path) fl `Int sf))
      extra
  in
  side "inorder" [];
  side "ooo" [ "replays_base"; "replays_spec" ]

let validate_safety_cell i v =
  let path = [ Printf.sprintf "safety.cells[%d]" i ] in
  let f = as_obj path "safety cell" v in
  List.iter
    (fun name -> ignore (field path name `Str f))
    [ "workload"; "variant" ];
  (match field path "verdict" `Str f with
   | Str ("unannotated" | "safe" | "leaks") -> ()
   | Str other ->
     raise
       (Invalid
          (Printf.sprintf "field %s.verdict: unknown verdict %S"
             (String.concat "." (List.rev path)) other))
   | _ -> assert false);
  List.iter
    (fun name -> ignore (field path name `Int f))
    [ "confirmed"; "plausible"; "checks"; "reloads"; "reload_steps";
      "deopts"; "deopt_steps" ];
  let sites = as_arr (field path "sites" `Arr f) in
  List.iter
    (fun s ->
      match s with
      | Str _ -> ()
      | _ ->
        raise
          (Invalid
             (Printf.sprintf "field %s.sites must hold strings"
                (String.concat "." (List.rev path)))))
    sites

(* The speculative-safety sweep: checker verdicts + recovery costs. *)
let validate_safety v =
  let path = [ "safety" ] in
  let f = as_obj path "safety" v in
  ignore (field path "seed" `Int f);
  ignore (field path "fault_plan" `Str f);
  let cells = as_arr (field path "cells" `Arr f) in
  List.iteri validate_safety_cell cells

(* The compile-service traffic replay ([--traffic]). *)
let validate_service v =
  let path = [ "service" ] in
  let f = as_obj path "service" v in
  List.iter
    (fun name -> ignore (field path name `Int f))
    [ "seed"; "requests"; "units"; "cold"; "warm"; "joined"; "parked";
      "reports"; "recompiles"; "errors"; "divergences" ];
  List.iter
    (fun name -> ignore (field path name `Num f))
    [ "p50_ms"; "p99_ms"; "wall_s"; "throughput_rps" ];
  (match List.assoc_opt "divergences" f with
   | Some (Int 0) -> ()
   | _ ->
     raise
       (Invalid
          "service.divergences must be 0: the replay hard-fails on any \
           daemon-vs-offline divergence"))

(** Validate a parsed dump against the [specpre-bench/8] schema.  The
    [backends], [engines], [mdp], [stress], [fdo], [compile],
    [safety] and [service] sections are optional (present only when
    the corresponding sweep ran) but fully pinned when present; a
    section of any other name is skipped.  Older schema tags —
    including [specpre-bench/7], whose variant rows carried an [engine]
    label and whose [engines] section had a tree column — are
    rejected. *)
let validate (v : json) : (unit, string) result =
  try
    let f = as_obj [] "bench dump" v in
    (match field [] "schema" `Str f with
     | Str s when s = schema_tag -> ()
     | Str other ->
       raise (Invalid (Printf.sprintf "unknown schema %S" other))
     | _ -> assert false);
    ignore (field [] "date" `Str f);
    (match field [] "inputs" `Str f with
     | Str ("train" | "ref") -> ()
     | Str other ->
       raise (Invalid (Printf.sprintf "inputs must be train|ref, got %S" other))
     | _ -> assert false);
    ignore (field [] "jobs" `Int f);
    ignore (field [] "harness_wall_s" `Num f);
    let workloads = as_arr (field [] "workloads" `Arr f) in
    List.iteri validate_workload workloads;
    (match List.assoc_opt "backends" f with
     | None -> ()
     | Some bv ->
       let bf = as_obj [ "backends" ] "backends" bv in
       let entries = as_arr (field [ "backends" ] "workloads" `Arr bf) in
       List.iteri validate_backends_entry entries);
    (match List.assoc_opt "engines" f with
     | None -> ()
     | Some ev ->
       let ef = as_obj [ "engines" ] "engines" ev in
       ignore (field [ "engines" ] "geomean_ref_over_vm" `Num ef);
       let cells = as_arr (field [ "engines" ] "workloads" `Arr ef) in
       List.iteri validate_engine_cell cells);
    (match List.assoc_opt "mdp" f with
     | None -> ()
     | Some mv ->
       let mf = as_obj [ "mdp" ] "mdp" mv in
       let cells = as_arr (field [ "mdp" ] "cells" `Arr mf) in
       List.iteri validate_mdp_cell cells);
    (match List.assoc_opt "stress" f with
     | None -> ()
     | Some sv ->
       let sf = as_obj [ "stress" ] "stress" sv in
       ignore (field [ "stress" ] "seed" `Int sf);
       let cells = as_arr (field [ "stress" ] "cells" `Arr sf) in
       List.iteri validate_stress_cell cells);
    (match List.assoc_opt "fdo" f with
     | None -> ()
     | Some fv ->
       let ff = as_obj [ "fdo" ] "fdo" fv in
       let cells = as_arr (field [ "fdo" ] "workloads" `Arr ff) in
       List.iteri validate_fdo_cell cells);
    (match List.assoc_opt "compile" f with
     | None -> ()
     | Some cv ->
       let cf = as_obj [ "compile" ] "compile" cv in
       ignore (field [ "compile" ] "jobs" `Int cf);
       ignore (field [ "compile" ] "total_speedup" `Num cf);
       let cells = as_arr (field [ "compile" ] "workloads" `Arr cf) in
       List.iteri validate_compile_cell cells);
    (match List.assoc_opt "safety" f with
     | None -> ()
     | Some sv -> validate_safety sv);
    (match List.assoc_opt "service" f with
     | None -> ()
     | Some sv -> validate_service sv);
    Ok ()
  with Invalid msg -> Error msg

(** Parse and validate in one step (the golden-file check). *)
let check (s : string) : (unit, string) result =
  match parse s with
  | Error msg -> Error ("parse error " ^ msg)
  | Ok v -> validate v

(* Run one workload and assemble its result line. *)

open Common

let workloads =
  [ "build", Build.run; "execute", Execute.run; "train", Train.run;
    "serve", Serve.run ]

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  digest : string;
  metrics : (string * float * string) list;  (* name, value, unit *)
  samples : int;  (* latency samples behind the percentiles *)
}

let to_json r =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v u)
          r.metrics))

(* Pick the catalogue's metrics out of what the workload measured; an
   end-to-end metric must be present and finite, a per-layer metric the
   workload does not exercise reads 0. *)
let select ~catalogue ~required measured =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (name, u) :: rest -> (
      match List.assoc_opt name measured with
      | Some v when Float.is_finite v -> go ((name, v, u) :: acc) rest
      | Some _ when required -> Error (name ^ " is not finite")
      | None when required -> Error (name ^ " was not measured")
      | _ -> go ((name, 0., u) :: acc) rest)
  in
  go [] catalogue

(* Run [workload] in a scratch directory under .specbench/.  A
   successful run removes the directory; a failing one keeps only the
   daemon's serve.log there, and at exit its caches and socket go too.
   A traced run traces the workload's last pass, writes the spans to
   .specbench/spans-W-SEED.jsonl and reports the per-layer metrics; an
   untraced run reports the end-to-end ones. *)
let run ~workload ~seed ~seconds ~trace ~speccc =
  match List.assoc_opt workload workloads with
  | None -> Error (Printf.sprintf "unknown workload %S" workload)
  | Some run_workload ->
    let dir =
      Filename.concat ".specbench"
        (Printf.sprintf "run-%s-%d" workload (Unix.getpid ()))
    in
    rm_rf dir;
    mkdir_p dir;
    at_exit (fun () ->
        match Sys.readdir dir with
        | files ->
          Array.iter
            (fun f -> if f <> "serve.log" then rm_rf (Filename.concat dir f))
            files
        | exception Sys_error _ -> ());
    let ck = checks () in
    Trace.reset ~on:trace;
    let o = run_workload { seed; seconds; speccc; dir } ck in
    if trace then
      Trace.write_jsonl
        (Filename.concat ".specbench"
           (Printf.sprintf "spans-%s-%d.jsonl" workload seed));
    rm_rf dir;
    let catalogue, required =
      if not trace then (end_to_end, true)
      else if workload = "serve" then (per_layer @ Serve.layer, false)
      else (per_layer, false)
    in
    Result.map
      (fun metrics ->
        { correct = ck.failed = 0; attempted = ck.attempted; failed = ck.failed;
          digest = o.digest; metrics; samples = o.samples })
      (select ~catalogue ~required o.metrics)

(* [run], printed: a line per metric, then the JSON result line.  A
   signal exits through [at_exit], so the daemon child is reaped. *)
let main ~workload ~seed ~seconds ~trace ~speccc =
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  let result =
    try run ~workload ~seed ~seconds ~trace ~speccc
    with e -> Error (Printexc.to_string e)
  in
  Result.map
    (fun r ->
      Printf.printf "workload %s seed %d: op-list digest %s\n" workload seed
        r.digest;
      Printf.printf "checks: %d attempted, %d failed (fail_ratio %.6f)\n"
        r.attempted r.failed
        (ratio (float_of_int r.failed) (float_of_int r.attempted));
      List.iter
        (fun (name, v, u) -> Printf.printf "  %-34s %14.6f %s\n" name v u)
        r.metrics;
      if not trace then
        Printf.printf "  latency_tail_ms is the p%g of %d samples\n"
          (100. *. Stats.tail r.samples) r.samples;
      to_json r)
    result

(* Fast checks of the benchmark: every workload runs at a tiny size,
   prints every metric BENCHMARK.json names with its unit, passes its
   output checks, and makes a seed-determined op list; plus unit tests
   of the statistics and of span self time.  No timing is asserted. *)

open Specbench_lib
module J = Spec_driver.Bench_json

let speccc = Filename.concat (Filename.concat ".." "bin") "speccc.exe"

let run ?(trace = false) ?(seed = 1) w =
  match
    Runner.run ~workload:w ~seed ~seconds:0.1 ~trace ~speccc
  with
  | Ok r -> r
  | Error m -> Alcotest.failf "%s: %s" w m

(* BENCHMARK.json's (name, unit) list under [key]. *)
let listed key =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  match J.parse text with
  | Ok (J.Obj top) -> (
    match List.assoc_opt key top with
    | Some (J.Arr l) ->
      List.map
        (function
          | J.Obj o -> (
            match (List.assoc_opt "name" o, List.assoc_opt "unit" o) with
            | Some (J.Str n), Some (J.Str u) -> (n, u)
            | Some (J.Str n), None -> (n, "")
            | _ -> Alcotest.failf "%s: entry without a name" key)
          | _ -> Alcotest.failf "%s: entry is not an object" key)
        l
    | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key)
  | Ok _ -> Alcotest.fail "BENCHMARK.json is not an object"
  | Error m -> Alcotest.failf "BENCHMARK.json: %s" m

let names_units (r : Runner.report) = List.map (fun (n, _, u) -> (n, u)) r.Runner.metrics

let catalogue () =
  Alcotest.(check (list (pair string string)))
    "end_to_end" (listed "end_to_end") Common.end_to_end;
  Alcotest.(check (list (pair string string)))
    "per_layer" (listed "per_layer") Common.per_layer;
  List.iter
    (fun (w, _) ->
      Alcotest.(check bool) (w ^ " is a workload") true
        (List.mem_assoc w Runner.workloads))
    (listed "workloads")

let workload w () =
  let a = run w in
  let b = run ~trace:true w in
  let c = run ~seed:2 w in
  List.iter
    (fun (r : Runner.report) ->
      Alcotest.(check int) (w ^ ": failed checks") 0 r.Runner.failed;
      Alcotest.(check bool) (w ^ ": attempted") true (r.Runner.attempted > 0))
    [ a; b; c ];
  Alcotest.(check (list (pair string string)))
    (w ^ ": end-to-end metrics") Common.end_to_end (names_units a);
  Alcotest.(check (list (pair string string)))
    (w ^ ": per-layer metrics")
    (if w = "serve" then Common.per_layer @ Serve.layer else Common.per_layer)
    (names_units b);
  Alcotest.(check string) (w ^ ": same seed, same ops") a.Runner.digest b.Runner.digest;
  Alcotest.(check bool) (w ^ ": other seed, other ops") true
    (a.Runner.digest <> c.Runner.digest);
  Alcotest.(check bool) (w ^ ": result line") true
    (match J.parse (Runner.to_json a) with Ok (J.Obj _) -> true | _ -> false)

let percentiles () =
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p50" 500. (Stats.percentile a 0.5);
  Alcotest.(check (float 0.)) "p99" 990. (Stats.percentile a 0.99);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Stats.beyond 1000 0.99);
  Alcotest.(check bool) "p99 of 1000 supported" true (Stats.supported 1000 0.99);
  Alcotest.(check bool) "p99 of 999 unsupported" false (Stats.supported 999 0.99);
  Alcotest.(check bool) "p90 of 100 supported" true (Stats.supported 100 0.9);
  Alcotest.(check bool) "p90 of 99 unsupported" false (Stats.supported 99 0.9);
  Alcotest.(check (float 0.)) "tail of 1000" 0.99 (Stats.tail 1000);
  Alcotest.(check (float 0.)) "tail of 999" 0.95 (Stats.tail 999);
  Alcotest.(check (float 0.)) "tail of 467" 0.95 (Stats.tail 467);
  Alcotest.(check (float 0.)) "tail of 100" 0.9 (Stats.tail 100);
  Alcotest.(check (float 0.)) "tail of 90" 0.8 (Stats.tail 90);
  Alcotest.(check (float 0.)) "tail of 49" 0.5 (Stats.tail 49);
  Alcotest.(check (float 0.)) "empty" 0. (Stats.percentile [||] 0.5)

let max_rps () =
  let close = Alcotest.float 1e-9 in
  Alcotest.check close "all meet: top rate" 800.
    (Stats.max_rps ~slo:50. [ 100., 10.; 200., 20.; 400., 30.; 800., 40. ]);
  (* halfway in p99 between 200 and 400 is 200 * sqrt 2 in rate *)
  Alcotest.check close "log-linear" (200. *. sqrt 2.)
    (Stats.max_rps ~slo:50. [ 100., 10.; 200., 40.; 400., 60.; 800., 900. ]);
  Alcotest.check close "bottom misses" 50.
    (Stats.max_rps ~slo:50. [ 100., 100.; 200., 200. ]);
  Alcotest.check close "failed rung" 200.
    (Stats.max_rps ~slo:50. [ 100., 10.; 200., 20.; 400., infinity ])

let self_time () =
  Trace.reset ~on:true;
  Trace.span "outer" (fun () ->
      Trace.span "inner" (fun () -> Unix.sleepf 0.02);
      Trace.span ~parts:(fun () -> [ "p1", 0.005; "p2", 0.005 ]) "passes"
        (fun () -> Unix.sleepf 0.015));
  let self = Trace.self_times !Trace.spans in
  let get n = Hashtbl.find self n in
  let spans = !Trace.spans in
  let dur n =
    let s = List.find (fun s -> s.Trace.name = n) spans in
    s.Trace.t1 -. s.Trace.t0
  in
  Alcotest.check (Alcotest.float 1e-6) "outer self = outer - children"
    (dur "outer" -. dur "inner" -. dur "passes") (get "outer");
  Alcotest.check (Alcotest.float 1e-6) "parts carve the span"
    (dur "passes" -. 0.01) (get "passes");
  Alcotest.check (Alcotest.float 1e-6) "part" 0.005 (get "p1");
  Alcotest.check (Alcotest.float 1e-6) "leaf" (dur "inner") (get "inner");
  Trace.reset ~on:false

let () =
  Alcotest.run "specbench"
    [ ( "metrics",
        [ Alcotest.test_case "BENCHMARK.json matches the catalogue" `Quick
            catalogue;
          Alcotest.test_case "percentile choice" `Quick percentiles;
          Alcotest.test_case "max_rps interpolation" `Quick max_rps;
          Alcotest.test_case "span self time" `Quick self_time ] );
      ( "workloads",
        List.map
          (fun (w, _) -> Alcotest.test_case w `Quick (workload w))
          Runner.workloads ) ]

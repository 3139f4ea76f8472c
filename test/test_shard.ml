(* The sharded compile service (lib/service/shard.ml) and the
   cross-wakeup single-flight registry underneath it: routing
   determinism (pure key-prefix hashing, stable across restarts),
   disjointness of the per-shard cache and profile-store slices,
   N same-key requests across wakeups = exactly one cold compile
   (cold/joined/parked counters), sharded-vs-unsharded byte-identical
   answers on a full workload sweep, and the [shards] section of the
   specpre-bench/8 schema (accept + reject). *)

open Spec_fdo
open Spec_driver
open Spec_service

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* The same two kernels the service tests use. *)
let src_a =
  "int A[40];\n\
   int s;\n\
   int main() {\n\
  \  int i; s = 0;\n\
  \  for (i = 0; i < 40; i++) { A[i] = 3 * i; }\n\
  \  for (i = 0; i < 40; i++) {\n\
  \    if (i < 30) { s = s + A[i]; } else { s = s + 2 * A[i]; }\n\
  \  }\n\
  \  print_int(s);\n\
  \  return 0;\n\
   }\n"

let src_b =
  "int g;\n\
   int bump(int k) { g = g + k; return g; }\n\
   int main() {\n\
  \  int i; int s; int* p;\n\
  \  s = 0; p = &g; *p = 2;\n\
  \  for (i = 0; i < 25; i++) { s = s + *p + i; }\n\
  \  s = s + bump(4);\n\
  \  print_int(s + g);\n\
  \  return 0;\n\
   }\n"

let rm_rf dir =
  (match Sys.readdir dir with
   | entries ->
     Array.iter
       (fun e ->
         let p = Filename.concat dir e in
         if Sys.is_directory p then (
           Array.iter
             (fun f -> try Sys.remove (Filename.concat p f) with _ -> ())
             (Sys.readdir p);
           try Unix.rmdir p with _ -> ())
         else try Sys.remove p with _ -> ())
       entries
   | exception Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "specshard-test-%d-%s" (Unix.getpid ()) tag)
  in
  rm_rf dir;
  dir

let router ?(shards = 3) ?(drift = 0.05) tag =
  Shard.create
    { (Daemon.default_config ~cache_dir:(fresh_dir tag)) with
      Daemon.sv_drift = drift }
    ~shards

let compile_req ?(unit_name = "u") ?(mode = "base") ?(exec = false) src =
  Proto.Compile
    { Proto.cq_unit = unit_name; cq_mode = mode; cq_rounds = 3;
      cq_strength = true; cq_exec = exec; cq_src = src }

let report_req ?(weight = 1.0) unit_name store =
  Proto.Report_profile
    { rq_unit = unit_name; rq_weight = weight;
      rq_store = Store.write store }

let store_of src =
  let prog, prof, _ = Pipeline.train src in
  Store.of_profile prog prof

let compiled = function
  | Proto.Compiled r -> r
  | Proto.Error m -> Alcotest.fail ("compile errored: " ^ m)
  | _ -> Alcotest.fail "expected a compiled reply"

(* ---- routing: a pure, restart-stable function of the key ---- *)

let test_routing_determinism () =
  (* pinned literals: the partition must never silently change, or a
     restarted service would go cold on every cache it already wrote *)
  check_int "pinned: zeros" 0 (Cache.shard_of_key ~shards:4 "00000000");
  check_int "pinned: ffffffff" 3 (Cache.shard_of_key ~shards:4 "ffffffff");
  check_int "pinned: abcdef01" 1 (Cache.shard_of_key ~shards:4 "abcdef01");
  check_int "pinned: deadbeef" 3 (Cache.shard_of_key ~shards:4 "deadbeef");
  check_int "pinned unit: art" (Store.shard_of_unit ~shards:4 "art")
    (Cache.shard_of_key ~shards:4 (Digest.to_hex (Digest.string "art")));
  (* only the 8-hex-digit prefix matters, so full MD5 keys and their
     prefixes agree *)
  let keys =
    List.init 50 (fun i -> Digest.to_hex (Digest.string (string_of_int i)))
  in
  List.iter
    (fun k ->
      check_int "prefix determines the shard"
        (Cache.shard_of_key ~shards:5 (String.sub k 0 8))
        (Cache.shard_of_key ~shards:5 k))
    keys;
  (* in range, covers every shard, single shard is always 0 *)
  let seen = Array.make 5 false in
  List.iter
    (fun k ->
      let s = Cache.shard_of_key ~shards:5 k in
      check_bool "in range" true (s >= 0 && s < 5);
      seen.(s) <- true;
      check_int "one shard routes everything" 0
        (Cache.shard_of_key ~shards:1 k))
    keys;
  check_bool "50 keys cover all 5 shards" true (Array.for_all Fun.id seen);
  (* malformed input is rejected, never silently hashed *)
  (match Cache.shard_of_key ~shards:3 "NOTHEX!!" with
   | exception Invalid_argument _ -> ()
   | s -> Alcotest.failf "malformed key routed to %d" s);
  (match Cache.shard_of_key ~shards:0 "abcdef01" with
   | exception Invalid_argument _ -> ()
   | s -> Alcotest.failf "zero shards routed to %d" s);
  (* restart stability: two independent routers agree on every request *)
  let t1 = router "route-a" and t2 = router "route-b" in
  let reqs =
    [ compile_req ~unit_name:"a" ~mode:"base" src_a;
      compile_req ~unit_name:"a" ~mode:"heuristic" src_a;
      compile_req ~unit_name:"b" ~mode:"none" src_b;
      compile_req ~unit_name:"a" ~mode:"profile" src_a;
      report_req "b" (store_of src_b) ]
  in
  List.iter
    (fun req ->
      check_bool "same route across restarts" true
        (Shard.shard_of t1 req = Shard.shard_of t2 req))
    reqs;
  check_bool "stats fan out" true (Shard.shard_of t1 Proto.Stats = None);
  check_bool "shutdown fans out" true
    (Shard.shard_of t1 Proto.Shutdown = None)

(* ---- cross-wakeup single-flight: N requests, 1 cold compile ---- *)

let test_cross_wakeup_single_flight () =
  let t =
    Daemon.create
      (Daemon.default_config ~cache_dir:(fresh_dir "xwake"))
  in
  let req = compile_req ~mode:"heuristic" src_a in
  (* wakeup 1: the creator and one same-wakeup joiner *)
  Daemon.begin_wakeup t;
  (match Daemon.submit t ~id:0 req with
   | Daemon.Parked_on _ -> ()
   | Daemon.Immediate _ -> Alcotest.fail "creator answered early");
  (match Daemon.submit t ~id:1 req with
   | Daemon.Parked_on _ -> ()
   | Daemon.Immediate _ -> Alcotest.fail "joiner answered early");
  (* wakeups 2 and 3: the key is still in flight — park, don't compile *)
  Daemon.begin_wakeup t;
  (match Daemon.submit t ~id:2 req with
   | Daemon.Parked_on _ -> ()
   | Daemon.Immediate _ -> Alcotest.fail "parker answered early");
  Daemon.begin_wakeup t;
  (match Daemon.submit t ~id:3 req with
   | Daemon.Parked_on _ -> ()
   | Daemon.Immediate _ -> Alcotest.fail "second parker answered early");
  check_bool "flight pending" true (Daemon.has_inflight t);
  let answers = Daemon.complete_one t in
  check_int "all four waiters answered at once" 4 (List.length answers);
  check_bool "no second flight" false (Daemon.has_inflight t);
  let counter name = List.assoc name (Daemon.counters t) in
  check_int "exactly one cold compile" 1 (counter "cold");
  check_int "one same-wakeup join" 1 (counter "joined");
  check_int "two cross-wakeup parks" 2 (counter "parked");
  check_int "no warm serves" 0 (counter "warm");
  let tag id =
    (compiled (List.assoc id answers)).Proto.cr_served
  in
  check_bool "creator served cold" true (tag 0 = Proto.Cold);
  check_bool "same-wakeup waiter joined" true (tag 1 = Proto.Joined);
  check_bool "later-wakeup waiters parked" true
    (tag 2 = Proto.Parked && tag 3 = Proto.Parked);
  let progs =
    List.map (fun (_, r) -> (compiled r).Proto.cr_prog) answers
  in
  List.iter
    (fun p -> check_str "identical programs" (List.hd progs) p)
    progs;
  (* the flight is gone: a later request is warm from the cache *)
  (match (compiled (Daemon.handle t req)).Proto.cr_served with
   | Proto.Warm -> ()
   | _ -> Alcotest.fail "post-flight repeat was not warm");
  check_int "still one cold compile" 1 (counter "cold")

(* The same guarantee through the router: duplicate keys in one batch
   dedupe even when other shards are busy, and the parked counter
   surfaces in the aggregate stats. *)
let test_router_single_flight () =
  let t = router "rsf" in
  let dup = compile_req ~unit_name:"a" ~mode:"heuristic" src_a in
  let resps =
    Shard.handle_batch t
      [ dup; compile_req ~unit_name:"b" ~mode:"base" src_b; dup; dup ]
  in
  check_int "every request answered" 4 (List.length resps);
  let kvs = Shard.counters t in
  check_int "aggregate: two cold compiles" 2 (List.assoc "cold" kvs);
  check_int "aggregate: two joins" 2 (List.assoc "joined" kvs);
  check_int "aggregate: parked counter present" 0 (List.assoc "parked" kvs);
  (* aggregate rows re-add from the per-shard rows *)
  let sum name =
    List.fold_left
      (fun acc i ->
        acc + List.assoc (Printf.sprintf "shard%d.%s" i name) kvs)
      0
      (List.init (Shard.shards t) Fun.id)
  in
  check_int "per-shard cold rows sum to the aggregate"
    (List.assoc "cold" kvs) (sum "cold");
  check_int "per-shard joined rows sum to the aggregate"
    (List.assoc "joined" kvs) (sum "joined")

(* ---- disjointness of the per-shard slices ---- *)

let mixed_batches () =
  let sa = store_of src_a and sb = store_of src_b in
  [ [ compile_req ~unit_name:"a" ~mode:"base" src_a;
      compile_req ~unit_name:"b" ~mode:"heuristic" src_b;
      report_req "a" sa ];
    [ compile_req ~unit_name:"a" ~mode:"profile" src_a;
      compile_req ~unit_name:"b" ~mode:"none" src_b;
      compile_req ~unit_name:"a" ~mode:"base" src_a;     (* warm *)
      report_req ~weight:2.0 "b" sb ];
    [ compile_req ~unit_name:"b" ~mode:"profile" ~exec:true src_b;
      report_req ~weight:0.5 "a" sa;
      compile_req ~unit_name:"a" ~mode:"heuristic" ~exec:true src_a ] ]

let test_slice_disjointness () =
  let shards = 3 in
  let dir = fresh_dir "disjoint" in
  let t = Shard.create (Daemon.default_config ~cache_dir:dir) ~shards in
  let batches = mixed_batches () in
  List.iter (fun b -> ignore (Shard.handle_batch t b)) batches;
  (* the stateless keys of the sweep, as the router derives them *)
  let stateless_keys =
    List.concat batches
    |> List.filter_map (function
      | Proto.Compile c ->
        Daemon.static_key ~mode:c.Proto.cq_mode ~rounds:c.Proto.cq_rounds
          ~strength:c.Proto.cq_strength c.Proto.cq_src
      | _ -> None)
  in
  check_bool "the sweep had stateless compiles" true (stateless_keys <> []);
  (* no cache key appears on two shards, and every stateless artifact
     sits on exactly the shard its key routes to (profile artifacts
     instead co-locate with their unit's store) *)
  let seen_keys : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let total = ref 0 in
  for i = 0 to shards - 1 do
    let keys =
      Sys.readdir (Cache.shard_dir dir i)
      |> Array.to_list
      |> List.filter_map (fun f -> Filename.chop_suffix_opt ~suffix:".sart" f)
    in
    check_int "cache length matches the on-disk slice"
      (List.length keys)
      (Cache.length (Daemon.cache (Shard.core t i)));
    List.iter
      (fun k ->
        incr total;
        if List.mem k stateless_keys then
          check_int "stateless artifact on its routed shard"
            (Cache.shard_of_key ~shards k) i;
        (match Hashtbl.find_opt seen_keys k with
         | Some j -> Alcotest.failf "key %s on shards %d and %d" k j i
         | None -> ());
        Hashtbl.replace seen_keys k i)
      keys
  done;
  check_bool "the sweep populated the caches" true (!total > 0);
  List.iter
    (fun k ->
      check_bool "stateless key cached on its routed shard" true
        (Hashtbl.find_opt seen_keys k = Some (Cache.shard_of_key ~shards k)))
    stateless_keys;
  (* every unit store lives on exactly the shard its name routes to *)
  let seen_units : (string, int) Hashtbl.t = Hashtbl.create 16 in
  for i = 0 to shards - 1 do
    List.iter
      (fun (name, _) ->
        check_int "unit store on its routed shard"
          (Store.shard_of_unit ~shards name) i;
        (match Hashtbl.find_opt seen_units name with
         | Some j -> Alcotest.failf "unit %s on shards %d and %d" name j i
         | None -> ());
        Hashtbl.replace seen_units name i)
      (Daemon.unit_stores (Shard.core t i))
  done;
  check_int "both units accounted for" 2 (Hashtbl.length seen_units)

(* ---- sharded topologies answer byte-identically to one daemon ---- *)

let test_sharded_equals_unsharded () =
  let run shards =
    let t = router ~shards (Printf.sprintf "equiv-%d" shards) in
    List.concat_map
      (fun batch ->
        List.map Proto.encode_response (Shard.handle_batch t batch))
      (mixed_batches ())
  in
  let base = run 1 in
  List.iter
    (fun shards ->
      let answers = run shards in
      check_int
        (Printf.sprintf "--shards %d answers every request" shards)
        (List.length base) (List.length answers);
      List.iteri
        (fun i (expect, got) ->
          check_str
            (Printf.sprintf "--shards %d request %d byte-identical" shards i)
            expect got)
        (List.combine base answers))
    [ 2; 3; 4 ]

(* ---- sharded traffic replay + the /7 shards section ---- *)

let replace_all ~pat ~by s =
  let b = Buffer.create (String.length s) in
  let pl = String.length pat in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + pl <= n && String.sub s !i pl = pat then begin
      Buffer.add_string b by;
      i := !i + pl
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let test_sharded_traffic_smoke () =
  List.iter
    (fun shards ->
      let cell =
        Traffic.run_traffic_replay ~quick:true ~requests:50 ~shards ()
      in
      let l = Printf.sprintf "shards=%d: " shards in
      check_int (l ^ "replayed every request") 50 cell.Traffic.t_requests;
      check_int (l ^ "no errors") 0 cell.Traffic.t_errors;
      check_int (l ^ "no divergences") 0 cell.Traffic.t_divergences;
      check_int (l ^ "topology width recorded") shards
        cell.Traffic.t_shards;
      check_int (l ^ "one row per shard") shards
        (List.length cell.Traffic.t_per_shard);
      check_bool (l ^ "cold compiles happened") true
        (cell.Traffic.t_cold > 0))
    [ 2; 4 ]

let test_shards_schema () =
  let cell = Traffic.run_traffic_replay ~quick:true ~requests:40 ~shards:2 () in
  let dump ?(mangle = Fun.id) () =
    Bench_json.dump ~date:"2026-08-09" ~inputs:"train" ~jobs:2
      ~harness_wall_s:0.1 ~service:(Traffic.to_json cell)
      ~shards:(mangle (Traffic.shards_to_json cell)) []
  in
  (match Bench_json.check (dump ()) with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("shards section rejected: " ^ e));
  let must_reject what mangle =
    match Bench_json.check (dump ~mangle ()) with
    | Ok () -> Alcotest.fail ("accepted " ^ what)
    | Error _ -> ()
  in
  must_reject "nonzero shard divergences"
    (replace_all ~pat:"\"divergences\":0" ~by:"\"divergences\":1");
  must_reject "per_shard/shards mismatch"
    (replace_all ~pat:"\"shards\":2" ~by:"\"shards\":3");
  must_reject "renamed per-shard counter"
    (replace_all ~pat:"\"parked\"" ~by:"\"parkd\"");
  must_reject "missing per-shard rows"
    (fun _ -> "{\"seed\":1,\"shards\":2,\"requests\":40,\"units\":3,\
               \"divergences\":0,\"p50_ms\":1.0,\"p99_ms\":2.0,\
               \"wall_s\":1.0,\"throughput_rps\":40.0}");
  (* the /7 tag (two engines) and the /6 tag (pre-shards) are rejected
     outright *)
  List.iter
    (fun old ->
      match
        Bench_json.check
          (replace_all ~pat:"specpre-bench/8" ~by:old (dump ()))
      with
      | Ok () -> Alcotest.fail ("accepted a " ^ old ^ " dump")
      | Error _ -> ())
    [ "specpre-bench/7"; "specpre-bench/6" ]

let suite =
  [ Alcotest.test_case "routing determinism" `Quick
      test_routing_determinism;
    Alcotest.test_case "cross-wakeup single flight" `Quick
      test_cross_wakeup_single_flight;
    Alcotest.test_case "router single flight" `Quick
      test_router_single_flight;
    Alcotest.test_case "slice disjointness" `Quick test_slice_disjointness;
    Alcotest.test_case "sharded == unsharded (byte-identical)" `Quick
      test_sharded_equals_unsharded;
    Alcotest.test_case "sharded traffic smoke" `Quick
      test_sharded_traffic_smoke;
    Alcotest.test_case "shards schema accept/reject" `Quick
      test_shards_schema ]

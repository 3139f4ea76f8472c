(* The differential/fuzz test wall around the compile service
   (lib/service): codec round-trips (units + QCheck fuzz over
   adversarial payloads), protocol robustness over a live socket
   (malformed / truncated / wrong-version / oversized lines get
   structured errors and the daemon keeps serving), daemon-vs-offline
   differential compiles (byte-identical programs and execution output,
   cold and warm, across modes), single-flight dedup under same-key
   batches and across wakeups, store health under mixed-key storms,
   a client that hangs up before its reply or in the middle of a
   request line, a cache directory that vanishes under the daemon, online-FDO semantics (report order
   independence with lambda = 1, background-recompile equivalence with
   the offline merge + compile, stale-report soundness), and the
   traffic replay the bench harness's [--traffic] table runs. *)

open Spec_ir
open Spec_fdo
open Spec_driver
open Spec_service

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Two small deterministic kernels: branches for edge evidence, arrays
   and a pointer so speculation has something to chew on. *)
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

(* src_a with the hot loop restructured: profiles recorded against
   src_a are stale for it. *)
let src_a_edited =
  "int A[40];\n\
   int s;\n\
   int main() {\n\
  \  int i; s = 0;\n\
  \  for (i = 0; i < 35; i++) { A[i] = 3 * i; s = s + A[i]; }\n\
  \  print_int(s);\n\
  \  return 0;\n\
   }\n"

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "specsvc-test-%d-%s" (Unix.getpid ()) tag)
  in
  (match Sys.readdir dir with
   | files ->
     Array.iter (fun f -> Sys.remove (Filename.concat dir f)) files
   | exception Sys_error _ -> ());
  dir

let daemon ?(drift = 0.05) ?(lambda = 1.0) tag =
  Daemon.create
    { (Daemon.default_config ~cache_dir:(fresh_dir tag)) with
      Daemon.sv_drift = drift; sv_lambda = lambda }

let counter t name = List.assoc name (Daemon.counters t)

let compile_req ?(unit_name = "u") ?(mode = "base") ?(rounds = 3)
    ?(strength = true) ?(exec = false) src =
  Proto.Compile
    { Proto.cq_unit = unit_name; cq_mode = mode; cq_rounds = rounds;
      cq_strength = strength; cq_exec = exec; cq_src = src }

let report_req ?(weight = 1.0) unit_name store =
  Proto.Report_profile
    { rq_unit = unit_name; rq_weight = weight;
      rq_store = Store.write store }

let compiled = function
  | Proto.Compiled r -> r
  | Proto.Error m -> Alcotest.fail ("compile errored: " ^ m)
  | _ -> Alcotest.fail "expected a compiled reply"

let profiled = function
  | Proto.Profiled r -> r
  | Proto.Error m -> Alcotest.fail ("report errored: " ^ m)
  | _ -> Alcotest.fail "expected a profiled reply"

let store_of src =
  let prog, prof, _ = Pipeline.train src in
  Store.of_profile prog prof

let vm_out (r : Pipeline.result) =
  (Spec_prof.Vm.run_program (Lazy.force r.Pipeline.vm))
    .Spec_prof.Interp.output

(* The offline arm of the differential tests: exactly what the daemon
   is specified to compute, straight through the pipeline with no
   cache and no service machinery. *)
let offline ?(rounds = 3) ?(strength = true) ?store src mode =
  match mode with
  | "none" -> Pipeline.compile_and_optimize ~rounds ~strength src Pipeline.Noopt
  | "base" -> Pipeline.compile_and_optimize ~rounds ~strength src Pipeline.Base
  | "heuristic" ->
    Pipeline.compile_and_optimize ~rounds ~strength src Pipeline.Spec_heuristic
  | "aggressive" ->
    Pipeline.compile_and_optimize ~rounds ~strength src Pipeline.Aggressive
  | "profile" ->
    let store = match store with Some s -> s | None -> Store.empty in
    let prof, _ = Store.bind store (Lower.compile src) in
    Pipeline.compile_and_optimize ~rounds ~strength
      ~edge_profile:(Some prof) src (Pipeline.Spec_profile prof)
  | m -> Alcotest.fail ("offline: unknown mode " ^ m)

(* ---- codec: units ---- *)

let test_proto_roundtrip_units () =
  let reqs =
    [ compile_req ~unit_name:"spaced unit" ~mode:"base" ~exec:true
        "int main() { return 0; }\n";
      compile_req ~unit_name:"" ~mode:"none" ~rounds:0 ~strength:false "";
      report_req ~weight:0.5 "u\nv" (store_of src_b);
      Proto.Report_profile
        { rq_unit = "q\"uote\\slash"; rq_weight = 2.25;
          rq_store = "not a store\x01\xff" };
      Proto.Stats; Proto.Shutdown ]
  in
  List.iter
    (fun r ->
      let line = Proto.encode_request r in
      check_bool "request encodes to one line" false
        (String.contains line '\n');
      match Proto.decode_request line with
      | Ok back -> check_bool "request round trip" true (back = r)
      | Error e -> Alcotest.fail ("request decode failed: " ^ e))
    reqs;
  let resps =
    [ Proto.Compiled
        { Proto.cr_served = Proto.Cold; cr_key = String.make 32 'a';
          cr_digest = "-"; cr_match_ppm = 1_000_000;
          cr_prog = "func main()\n{\n}\n"; cr_output = "42\n" };
      Proto.Compiled
        { Proto.cr_served = Proto.Joined; cr_key = ""; cr_digest = "";
          cr_match_ppm = 0; cr_prog = ""; cr_output = "tab\there" };
      Proto.Compiled
        { Proto.cr_served = Proto.Parked; cr_key = String.make 32 '0';
          cr_digest = String.make 32 'b'; cr_match_ppm = 500_000;
          cr_prog = "func f()\n{\n}\n"; cr_output = "" };
      Proto.Profiled
        { Proto.rr_runs = 3; rr_digest = String.make 32 'f';
          rr_drift = 0.125; rr_recompiled = true };
      Proto.Stats_reply [ ("requests", 7); ("with space", 0) ];
      Proto.Stats_reply []; Proto.Bye; Proto.Error "bad \"thing\"\nhappened" ]
  in
  List.iter
    (fun r ->
      let line = Proto.encode_response r in
      check_bool "response encodes to one line" false
        (String.contains line '\n');
      match Proto.decode_response line with
      | Ok back -> check_bool "response round trip" true (back = r)
      | Error e -> Alcotest.fail ("response decode failed: " ^ e))
    resps

let test_proto_rejects () =
  let must_err what = function
    | Ok _ -> Alcotest.fail ("accepted " ^ what)
    | Error msg -> check_bool (what ^ ": non-empty error") true (msg <> "")
  in
  must_err "empty line" (Proto.decode_request "");
  must_err "garbage" (Proto.decode_request "ceci n'est pas une requete");
  must_err "wrong version" (Proto.decode_request "specsvc/0 stats");
  must_err "old version (no parked tag)"
    (Proto.decode_request "specsvc/1 stats");
  must_err "future version" (Proto.decode_request "specsvc/3 stats");
  must_err "unknown verb" (Proto.decode_request "specsvc/2 frobnicate");
  must_err "truncated compile" (Proto.decode_request "specsvc/2 compile u");
  must_err "bad int"
    (Proto.decode_request "specsvc/2 compile u base x 1 0 src");
  must_err "bad bool"
    (Proto.decode_request "specsvc/2 compile u base 3 yes 0 src");
  must_err "unterminated quote"
    (Proto.decode_request "specsvc/2 compile \"u base 3 1 0 src");
  must_err "trailing tokens" (Proto.decode_request "specsvc/2 stats extra");
  must_err "oversized"
    (Proto.decode_request
       ("specsvc/2 compile u base 3 1 0 "
       ^ String.make (Proto.max_line + 1) 's'));
  must_err "negative stats count"
    (Proto.decode_response "specsvc/2 stats -1");
  must_err "absurd stats count"
    (Proto.decode_response "specsvc/2 stats 99999");
  must_err "unknown served tag"
    (Proto.decode_response "specsvc/2 compiled tepid k d 0 p o")

(* ---- codec: fuzz ---- *)

let gen_wild_string =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 30))

let gen_finite_weight =
  QCheck.Gen.map
    (fun f -> if Float.is_finite f then Float.abs f else 1.5)
    QCheck.Gen.float

let gen_request =
  let open QCheck.Gen in
  frequency
    [ (4,
       gen_wild_string >>= fun u ->
       gen_wild_string >>= fun mode ->
       gen_wild_string >>= fun src ->
       int_bound 9 >>= fun rounds ->
       bool >>= fun strength ->
       bool >>= fun exec ->
       return
         (Proto.Compile
            { Proto.cq_unit = u; cq_mode = mode; cq_rounds = rounds;
              cq_strength = strength; cq_exec = exec; cq_src = src }));
      (2,
       gen_wild_string >>= fun u ->
       gen_finite_weight >>= fun w ->
       gen_wild_string >>= fun store ->
       return
         (Proto.Report_profile
            { rq_unit = u; rq_weight = w; rq_store = store }));
      (1, return Proto.Stats);
      (1, return Proto.Shutdown) ]

let show_request r = Proto.encode_request r

let fuzz_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"codec fuzz: request round trip"
    (QCheck.make ~print:show_request gen_request) (fun r ->
      let line = Proto.encode_request r in
      (not (String.contains line '\n'))
      && Proto.decode_request line = Ok r)

let fuzz_decode_total =
  (* feeding arbitrary bytes to both decoders must never raise; a
     version-tagged prefix drives the fuzz deeper into the grammar *)
  let gen =
    QCheck.Gen.(
      pair bool gen_wild_string
      |> map (fun (tagged, s) -> if tagged then "specsvc/2 " ^ s else s))
  in
  QCheck.Test.make ~count:1000 ~name:"codec fuzz: decode is total"
    (QCheck.make ~print:(fun s -> s) gen) (fun line ->
      (match Proto.decode_request line with Ok _ | Error _ -> true)
      && (match Proto.decode_response line with Ok _ | Error _ -> true))

(* ---- protocol robustness over a live socket ---- *)

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go n =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
      Unix.sleepf 0.05;
      go (n - 1)
  in
  go 40;
  fd

let raw_write fd s =
  let n = String.length s in
  let pos = ref 0 in
  (try
     while !pos < n do
       pos := !pos + Unix.write_substring fd s !pos (n - !pos)
     done
   with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
  !pos

let raw_read_line fd =
  let buf = Buffer.create 256 in
  let one = Bytes.create 1 in
  let rec go () =
    match Unix.read fd one 0 1 with
    | 0 -> None
    | _ ->
      if Bytes.get one 0 = '\n' then Some (Buffer.contents buf)
      else begin
        Buffer.add_char buf (Bytes.get one 0);
        go ()
      end
    | exception Unix.Unix_error _ -> None
  in
  go ()

let is_error_reply = function
  | Some line ->
    (match Proto.decode_response line with
     | Ok (Proto.Error _) -> true
     | _ -> false)
  | None -> false

let test_socket_malformed () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "specsvc-mal-%d.sock" (Unix.getpid ()))
  in
  let cfg = Daemon.default_config ~cache_dir:(fresh_dir "mal") in
  let server = Server.spawn cfg ~socket:sock in
  (* every malformed line gets a structured error reply on the same
     connection, and the daemon survives all of them *)
  let malformed =
    [ "definitely not a request";
      "specsvc/0 stats";
      "specsvc/1 stats";
      "specsvc/2 frobnicate";
      "specsvc/2 compile u";
      "specsvc/2 compile u base NaN 1 0 src";
      "specsvc/2 compile \"unterminated";
      "specsvc/2 stats trailing" ]
  in
  List.iter
    (fun line ->
      let fd = raw_connect sock in
      ignore (raw_write fd (line ^ "\n") : int);
      check_bool ("structured error for: " ^ line) true
        (is_error_reply (raw_read_line fd));
      Unix.close fd)
    malformed;
  (* an oversized request: the daemon answers with an error and drops
     the connection without wedging *)
  let fd = raw_connect sock in
  let big = String.make (Proto.max_line + 65536) 'x' in
  ignore (raw_write fd big : int);
  let reply = raw_read_line fd in
  check_bool "oversized gets an error or a drop" true
    (is_error_reply reply || reply = None);
  Unix.close fd;
  (* the daemon is still alive and still answers well-formed requests *)
  (match Client.connect sock with
   | Error e -> Alcotest.fail ("daemon died: " ^ e)
   | Ok c ->
     (match Client.rpc c (compile_req ~mode:"base" src_b) with
      | Ok (Proto.Compiled r) ->
        check_bool "post-fuzz compile served" true
          (r.Proto.cr_served = Proto.Cold || r.Proto.cr_served = Proto.Warm)
      | Ok _ -> Alcotest.fail "post-fuzz compile: wrong reply"
      | Error e -> Alcotest.fail ("post-fuzz compile failed: " ^ e));
     (match Client.rpc c Proto.Stats with
      | Ok (Proto.Stats_reply kvs) ->
        (* the 8 malformed lines and the oversized one are refused; the
           compile and this stats request are served *)
        check_int "every line counted as a request" 11
          (List.assoc "requests" kvs);
        check_int "every refused line counted as an error" 9
          (List.assoc "errors" kvs)
      | Ok _ -> Alcotest.fail "stats: wrong reply"
      | Error e -> Alcotest.fail ("stats failed: " ^ e));
     Client.close c);
  Server.stop server

(* A client that hangs up before its reply loses the reply, not the
   server: the landed flight's answer hits EPIPE, the connection leaves
   the select set, and the next client is served. *)
let test_client_hangup () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "specsvc-hup-%d.sock" (Unix.getpid ()))
  in
  let cfg = Daemon.default_config ~cache_dir:(fresh_dir "hup") in
  let server = Server.spawn cfg ~socket:sock in
  let line req = Proto.encode_request req ^ "\n" in
  let req = compile_req ~mode:"heuristic" src_a in
  let fd = raw_connect sock in
  ignore (raw_write fd (line req) : int);
  Unix.close fd;
  (* a bounded wait: a dead server fails the test instead of hanging it *)
  let fd = raw_connect sock in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let rpc req =
    ignore (raw_write fd (line req) : int);
    match raw_read_line fd with
    | None -> Alcotest.fail "no reply: the server died with the hang-up"
    | Some l ->
      (match Proto.decode_response l with
       | Ok resp -> resp
       | Error e -> Alcotest.fail ("undecodable reply: " ^ e))
  in
  (match (compiled (rpc req)).Proto.cr_served with
   | Proto.Warm | Proto.Joined | Proto.Parked -> ()
   | Proto.Cold -> Alcotest.fail "the same key was compiled cold twice");
  (match rpc Proto.Stats with
   | Proto.Stats_reply kvs ->
     check_int "one cold compile" 1 (List.assoc "cold" kvs);
     check_int "a hang-up is not an error" 0 (List.assoc "errors" kvs)
   | _ -> Alcotest.fail "stats: wrong reply");
  Unix.close fd;
  Server.stop server

(* A program that faults when its compile runs it is answered with its
   runtime error, and the daemon keeps serving. *)
let test_exec_fault () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "specsvc-fault-%d.sock" (Unix.getpid ()))
  in
  let cfg = Daemon.default_config ~cache_dir:(fresh_dir "fault") in
  let server = Server.spawn cfg ~socket:sock in
  let fd = raw_connect sock in
  (* a bounded wait: a dead server fails the test instead of hanging it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let rpc req =
    ignore (raw_write fd (Proto.encode_request req ^ "\n") : int);
    match raw_read_line fd with
    | None -> Alcotest.fail "no reply: the fault killed the server"
    | Some l ->
      (match Proto.decode_response l with
       | Ok resp -> resp
       | Error e -> Alcotest.fail ("undecodable reply: " ^ e))
  in
  let src = "int main() { int *p; p = 0; *p = 3; return 0; }\n" in
  check_str "the reply carries the program's error"
    "!runtime error: store at invalid address 0x0"
    (compiled (rpc (compile_req ~exec:true src))).Proto.cr_output;
  (match rpc Proto.Stats with
   | Proto.Stats_reply kvs ->
     check_int "the compile was served" 1 (List.assoc "cold" kvs);
     check_int "and is not a daemon error" 0 (List.assoc "errors" kvs)
   | _ -> Alcotest.fail "stats: wrong reply");
  Unix.close fd;
  Server.stop server

(* A request cut short by a hang-up is not a request: the partial line
   leaves with its connection, uncounted, and the next client is
   served. *)
let test_partial_line_hangup () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "specsvc-part-%d.sock" (Unix.getpid ()))
  in
  let cfg = Daemon.default_config ~cache_dir:(fresh_dir "part") in
  let server = Server.spawn cfg ~socket:sock in
  List.iter
    (fun req ->
      let fd = raw_connect sock in
      ignore (raw_write fd (Proto.encode_request req) : int);
      Unix.close fd)
    [ compile_req ~mode:"heuristic" src_a; Proto.Stats ];
  (match Client.connect sock with
   | Error e -> Alcotest.fail ("daemon died: " ^ e)
   | Ok c ->
     (match Client.rpc c Proto.Stats with
      | Ok (Proto.Stats_reply kvs) ->
        check_int "only this stats request counted" 1
          (List.assoc "requests" kvs);
        check_int "a partial line is not an error" 0
          (List.assoc "errors" kvs)
      | Ok _ -> Alcotest.fail "stats: wrong reply"
      | Error e -> Alcotest.fail ("stats failed: " ^ e));
     Client.close c);
  Server.stop server

(* A second listener on a live daemon's socket is refused, and the
   daemon keeps serving on it. *)
let test_live_socket_kept () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "specsvc-live-%d.sock" (Unix.getpid ()))
  in
  let cfg = Daemon.default_config ~cache_dir:(fresh_dir "live") in
  let server = Server.spawn cfg ~socket:sock in
  (match Server.listen sock with
   | Ok l ->
     Server.close l;
     Alcotest.fail "a second listener took over a live daemon's socket"
   | Error _ -> ());
  (match Client.connect sock with
   | Error e -> Alcotest.fail ("daemon unreachable: " ^ e)
   | Ok c ->
     (match Client.rpc c Proto.Stats with
      | Ok (Proto.Stats_reply _) -> ()
      | Ok _ -> Alcotest.fail "stats: wrong reply"
      | Error e -> Alcotest.fail ("stats failed: " ^ e));
     Client.close c);
  Server.stop server

(* A cache directory that vanishes under the daemon costs warm hits,
   not answers: the compile is served, the failed store is counted,
   and stats still reads the (now empty) cache. *)
let test_vanished_cache_dir () =
  let dir = fresh_dir "vanished" in
  let t = Daemon.create (Daemon.default_config ~cache_dir:dir) in
  Unix.rmdir dir;
  let req = compile_req ~exec:true src_a in
  let direct = offline src_a "base" in
  let r = compiled (Daemon.handle t req) in
  check_str "program == direct program"
    (Pp.prog_to_string direct.Pipeline.prog) r.Proto.cr_prog;
  check_str "output == direct output" (vm_out direct) r.Proto.cr_output;
  check_int "no errors" 0 (counter t "errors");
  check_int "the store failure is counted" 1
    (counter t "cache_store_failures");
  check_int "nothing cached" 0 (counter t "cache_length");
  check_bool "a repeat compiles cold again" true
    ((compiled (Daemon.handle t req)).Proto.cr_served = Proto.Cold)

(* ---- differential: daemon == direct pipeline ---- *)

let test_differential_modes () =
  let t = daemon "diff" in
  List.iter
    (fun (unit_name, src) ->
      List.iter
        (fun mode ->
          let label = unit_name ^ "/" ^ mode in
          let req = compile_req ~unit_name ~mode ~exec:true src in
          let cold = compiled (Daemon.handle t req) in
          let direct = offline src mode in
          check_bool (label ^ ": first serve is cold") true
            (cold.Proto.cr_served = Proto.Cold);
          check_str (label ^ ": daemon program == direct program")
            (Pp.prog_to_string direct.Pipeline.prog)
            cold.Proto.cr_prog;
          check_str (label ^ ": daemon output == direct output")
            (vm_out direct) cold.Proto.cr_output;
          (* warm repeat: served from the cache, byte-identical *)
          let warm = compiled (Daemon.handle t req) in
          check_bool (label ^ ": repeat serve is warm") true
            (warm.Proto.cr_served = Proto.Warm);
          check_str (label ^ ": warm program identical")
            cold.Proto.cr_prog warm.Proto.cr_prog;
          check_str (label ^ ": warm output identical")
            cold.Proto.cr_output warm.Proto.cr_output;
          check_str (label ^ ": same cache key") cold.Proto.cr_key
            warm.Proto.cr_key)
        [ "none"; "base"; "heuristic"; "aggressive" ])
    [ ("a", src_a); ("b", src_b) ]

let test_differential_profile () =
  let t = daemon "diffp" in
  let store = store_of src_a in
  let r1 =
    profiled (Daemon.handle t (report_req "a" store))
  in
  check_int "one training run merged" store.Store.runs r1.Proto.rr_runs;
  check_str "daemon digest == offline digest" (Store.digest store)
    r1.Proto.rr_digest;
  let req = compile_req ~unit_name:"a" ~mode:"profile" ~exec:true src_a in
  let cold = compiled (Daemon.handle t req) in
  let direct = offline ~store src_a "profile" in
  check_bool "profile compile is cold" true
    (cold.Proto.cr_served = Proto.Cold);
  check_int "evidence fully matches" 1_000_000 cold.Proto.cr_match_ppm;
  check_str "profile program == direct profile program"
    (Pp.prog_to_string direct.Pipeline.prog)
    cold.Proto.cr_prog;
  check_str "profile output == direct output" (vm_out direct)
    cold.Proto.cr_output;
  let warm = compiled (Daemon.handle t req) in
  check_bool "profile repeat is warm" true
    (warm.Proto.cr_served = Proto.Warm);
  check_str "warm profile program identical" cold.Proto.cr_prog
    warm.Proto.cr_prog

(* ---- malformed source ---- *)

(* Stateless modes lower the source only when the flight lands, so a
   frontend error surfaces inside the compile: every waiter gets an
   error reply, the flight is dropped, and the daemon keeps serving *)
let test_malformed_compile () =
  let t = daemon "malformed" in
  let bad = compile_req "int main() { int x; x = ; return 0; }\n" in
  let is_frontend_error = function
    | Proto.Error m -> String.starts_with ~prefix:"frontend: " m
    | _ -> false
  in
  let resps = Daemon.handle_batch t [ bad; bad ] in
  check_bool "creator and joiner both refused" true
    (List.for_all is_frontend_error resps);
  check_int "each refusal counted" 2 (counter t "errors");
  check_int "flight dropped" 0 (counter t "inflight");
  check_bool "a later request compiles again" true
    (is_frontend_error (Daemon.handle t bad));
  check_int "and is counted again" 3 (counter t "errors");
  let good = compile_req ~exec:true src_a in
  let cold = compiled (Daemon.handle t good) in
  check_bool "next request served cold" true
    (cold.Proto.cr_served = Proto.Cold);
  check_str "next request runs" (vm_out (offline src_a "base"))
    cold.Proto.cr_output;
  check_bool "and its repeat warm" true
    ((compiled (Daemon.handle t good)).Proto.cr_served = Proto.Warm)

(* ---- single-flight ---- *)

let test_single_flight () =
  let t = daemon "flight" in
  let n = 6 in
  let reqs = List.init n (fun _ -> compile_req ~mode:"heuristic" src_a) in
  let resps = List.map compiled (Daemon.handle_batch t reqs) in
  check_int "exactly one cold compile" 1 (counter t "cold");
  check_int "everyone else joined" (n - 1) (counter t "joined");
  check_int "no warm serves in the first batch" 0 (counter t "warm");
  let first = List.hd resps in
  check_bool "first requester ran the compile" true
    (first.Proto.cr_served = Proto.Cold);
  List.iteri
    (fun i r ->
      if i > 0 then
        check_bool (Printf.sprintf "request %d joined" i) true
          (r.Proto.cr_served = Proto.Joined);
      check_str (Printf.sprintf "request %d: identical program" i)
        first.Proto.cr_prog r.Proto.cr_prog;
      check_str (Printf.sprintf "request %d: identical key" i)
        first.Proto.cr_key r.Proto.cr_key)
    resps;
  (* a later batch for the same key is warm, not cold and not joined *)
  let again = compiled (Daemon.handle t (List.hd reqs)) in
  check_bool "across batches the cache serves" true
    (again.Proto.cr_served = Proto.Warm);
  check_int "still exactly one cold compile" 1 (counter t "cold")

(* N requests for one key across wakeups cost one cold compile: the
   creator, a same-wakeup joiner and two later-wakeup parkers are all
   answered when the one flight lands. *)
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

let test_mixed_key_storm () =
  let t = daemon "storm" in
  let store_a = store_of src_a and store_b = store_of src_b in
  let batch =
    [ compile_req ~unit_name:"a" ~mode:"base" src_a;
      compile_req ~unit_name:"b" ~mode:"heuristic" src_b;
      report_req ~weight:1.0 "a" store_a;
      compile_req ~unit_name:"a" ~mode:"base" src_a;       (* dup key *)
      report_req ~weight:0.5 "b" store_b;
      compile_req ~unit_name:"b" ~mode:"none" src_b;
      compile_req ~unit_name:"a" ~mode:"profile" src_a;
      report_req ~weight:2.0 "a" store_a;
      compile_req ~unit_name:"b" ~mode:"heuristic" src_b ] (* dup key *)
  in
  let resps = Daemon.handle_batch t batch in
  check_int "every request answered" (List.length batch)
    (List.length resps);
  List.iter
    (function
      | Proto.Error m -> Alcotest.fail ("storm request errored: " ^ m)
      | _ -> ())
    resps;
  check_int "no protocol errors" 0 (counter t "errors");
  check_int "both dup keys joined" 2 (counter t "joined");
  check_int "storm left no invalid store" 0 (counter t "store_invalid");
  List.iter
    (fun (name, s) ->
      match Store.validate s with
      | Ok () -> ()
      | Error e ->
        Alcotest.fail
          (Printf.sprintf "unit %s store invalid after storm: %s" name e))
    (Daemon.unit_stores t)

(* ---- the online FDO loop ---- *)

(* Reports arriving in any order must leave the same accumulated store
   (lambda = 1 keeps the merge commutative) and, once drift triggers
   the background recompile, the same swapped artifact — which in turn
   must be byte-identical to the offline merge-then-compile. *)
let test_report_order_independence () =
  let stores =
    [ (store_of src_a, 1.0);
      (store_of (src_a ^ "\n"), 0.5);    (* same program, new digest *)
      (store_of src_b, 2.0) ]
  in
  let run tag reports =
    let t = daemon ~drift:0.05 tag in
    (* a profile compile first: sets the unit's source and the drift
       snapshot the reports will be measured against *)
    ignore
      (compiled
         (Daemon.handle t
            (compile_req ~unit_name:"u" ~mode:"profile" src_a)));
    let resps =
      Daemon.handle_batch t
        (List.map (fun (s, w) -> report_req ~weight:w "u" s) reports)
    in
    let last = profiled (List.nth resps (List.length resps - 1)) in
    check_bool (tag ^ ": drift triggered a recompile") true
      last.Proto.rr_recompiled;
    check_int (tag ^ ": exactly one background recompile") 1
      (counter t "recompiles");
    let art =
      match Daemon.current_artifact t "u" with
      | Some r -> r
      | None -> Alcotest.fail (tag ^ ": no current artifact")
    in
    (last.Proto.rr_digest, Pp.prog_to_string art.Pipeline.prog, vm_out art)
  in
  let digest_fwd, prog_fwd, out_fwd = run "fdo-fwd" stores in
  let digest_rev, prog_rev, out_rev = run "fdo-rev" (List.rev stores) in
  check_str "accumulated digests agree across orders" digest_fwd digest_rev;
  check_str "recompiled artifacts agree across orders" prog_fwd prog_rev;
  check_str "artifact outputs agree across orders" out_fwd out_rev;
  (* offline equivalence: fold the same merges, compile directly *)
  let merged =
    List.fold_left
      (fun acc (s, w) -> Store.merge_weighted ~wa:1.0 ~wb:w acc s)
      Store.empty stores
  in
  check_str "offline merge reproduces the daemon digest"
    (Store.digest merged) digest_fwd;
  let direct = offline ~store:merged src_a "profile" in
  check_str "offline recompile reproduces the daemon artifact"
    (Pp.prog_to_string direct.Pipeline.prog)
    prog_fwd;
  check_str "offline output agrees" (vm_out direct) out_fwd

let test_decay_weighting () =
  (* with lambda < 1 old evidence decays: after many fresh reports the
     accumulated store converges toward the fresh evidence, so the
     recompile uses recent behavior.  We just pin the arithmetic: the
     daemon's store equals the explicit weighted fold. *)
  let s1 = store_of src_a and s2 = store_of src_b in
  let lambda = 0.5 in
  let t = daemon ~lambda "decay" in
  ignore (profiled (Daemon.handle t (report_req ~weight:1.0 "u" s1)));
  let r2 = profiled (Daemon.handle t (report_req ~weight:1.0 "u" s2)) in
  let expected =
    Store.merge_weighted ~wa:lambda ~wb:1.0
      (Store.merge_weighted ~wa:lambda ~wb:1.0 Store.empty s1)
      s2
  in
  check_str "decayed fold matches the daemon store"
    (Store.digest expected) r2.Proto.rr_digest

(* A report recorded against an old source is stale for the edited
   one: binding drops unmatched sites (match < 1), and the compile
   still produces output identical to the unoptimized oracle. *)
let test_stale_report_sound () =
  let t = daemon "stale" in
  let old_store = store_of src_a in
  ignore (profiled (Daemon.handle t (report_req "a" old_store)));
  let r =
    compiled
      (Daemon.handle t
         (compile_req ~unit_name:"a" ~mode:"profile" ~exec:true src_a_edited))
  in
  check_bool "stale evidence binds partially" true
    (r.Proto.cr_match_ppm < 1_000_000);
  let oracle =
    (Spec_prof.Vm.run (Lower.compile src_a_edited))
      .Spec_prof.Interp.output
  in
  check_str "stale-profile compile output == unoptimized oracle" oracle
    r.Proto.cr_output

(* ---- traffic replay ---- *)

let test_traffic_smoke () =
  let cell = Traffic.run_traffic_replay ~quick:true ~requests:60 () in
  check_int "replayed every request" 60 cell.Traffic.t_requests;
  check_int "no daemon errors" 0 cell.Traffic.t_errors;
  check_int "no divergences" 0 cell.Traffic.t_divergences;
  check_bool "cache warmed up" true (cell.Traffic.t_warm > 0);
  check_bool "cold compiles happened" true (cell.Traffic.t_cold > 0);
  check_bool "reports flowed" true (cell.Traffic.t_reports > 0);
  check_bool "latency percentiles ordered" true
    (cell.Traffic.t_p50_ms <= cell.Traffic.t_p99_ms)

let suite =
  [ Alcotest.test_case "proto round trip units" `Quick
      test_proto_roundtrip_units;
    Alcotest.test_case "proto rejects malformed" `Quick test_proto_rejects;
    QCheck_alcotest.to_alcotest fuzz_request_roundtrip;
    QCheck_alcotest.to_alcotest fuzz_decode_total;
    Alcotest.test_case "socket survives malformed lines" `Quick
      test_socket_malformed;
    Alcotest.test_case "socket survives a client hang-up" `Quick
      test_client_hangup;
    Alcotest.test_case "partial line then hang-up" `Quick
      test_partial_line_hangup;
    Alcotest.test_case "a faulting program's exec is answered" `Quick
      test_exec_fault;
    Alcotest.test_case "a live daemon's socket is kept" `Quick
      test_live_socket_kept;
    Alcotest.test_case "vanished cache directory" `Quick
      test_vanished_cache_dir;
    Alcotest.test_case "differential: plain modes" `Quick
      test_differential_modes;
    Alcotest.test_case "differential: profile mode" `Quick
      test_differential_profile;
    Alcotest.test_case "malformed compile is refused, not fatal" `Quick
      test_malformed_compile;
    Alcotest.test_case "single-flight dedup" `Quick test_single_flight;
    Alcotest.test_case "cross-wakeup single flight" `Quick
      test_cross_wakeup_single_flight;
    Alcotest.test_case "mixed-key storm" `Quick test_mixed_key_storm;
    Alcotest.test_case "report order independence" `Quick
      test_report_order_independence;
    Alcotest.test_case "decay weighting" `Quick test_decay_weighting;
    Alcotest.test_case "stale reports are sound" `Quick
      test_stale_report_sound;
    Alcotest.test_case "traffic replay smoke" `Quick test_traffic_smoke ]

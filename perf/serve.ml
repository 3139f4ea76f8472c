(* The [serve] workload: seeded request traffic against a real
   `speccc serve` child process over two connections.

   After an unmeasured warm-up at the bottom rate, an open loop of
   Poisson arrivals climbs a ladder of offered rates.  The mix follows the
   service's traffic replay: 58 % compiles (modes none, base, heuristic
   and profile; a quarter also execute; a tenth use a fresh source and
   so run cold), 30 % profile reports (baseline, drifting or stale
   evidence) and 12 % stats, drawn from seeded decks so that every
   phase holds the same mix whatever the seed.  A due request goes out
   on any idle connection; it waits only while another request for the
   same unit is in flight, which keeps each unit's requests in the order
   the expected replies assume.  Latency is timed from the due time, so
   a stalled daemon also delays every request queued behind the stall.

   A run plays two schedules drawn from the seed, each against a freshly
   started daemon, and pools their latencies. *)

open Spec_driver
open Common
module W = Spec_workloads.Workloads
module Store = Spec_fdo.Store
module Proto = Spec_service.Proto

(* p99 latency limit of the ladder's rates *)
let slo_ms = 50.

type phase =
  | Warmup of int            (* offered rate, req/s; not measured *)
  | Rung of int

(* each phase with its share of one replay's nominal time *)
let phases =
  [ Warmup 100, 0.08; Rung 100, 0.08; Rung 200, 0.6; Rung 400, 0.12;
    Rung 800, 0.07; Rung 1600, 0.05 ]

(* the rung whose latencies are the end-to-end metrics *)
let measured_rung = 200

(* Per-layer metrics only this workload prints, after
   [Common.per_layer]. *)
let layer =
  [ "proto.encode_busy_s", "s"; "proto.decode_busy_s", "s";
    "proto.kb_out", "kB"; "proto.kb_in", "kB";
    "service.cold_p50_ms", "ms"; "service.warm_p50_ms", "ms";
    "service.warm_p95_ms", "ms"; "service.exec_p50_ms", "ms";
    "service.report_p50_ms", "ms"; "service.warm_alone_p50_ms", "ms";
    "service.warm_behind_cold_p50_ms", "ms";
    "service.warm_behind_cold_share", "ratio"; "service.max_rps", "req/s";
    "service.cold", "count"; "service.warm", "count";
    "service.joined", "count"; "service.parked", "count";
    "service.recompiles", "count"; "service.cache_hit_ratio", "ratio";
    "service.errors", "count" ]
  @ List.concat_map
      (function
        | Rung r, _ ->
          [ Printf.sprintf "service.p50_ms.r%d" r, "ms";
            Printf.sprintf "service.p99_ms.r%d" r, "ms";
            Printf.sprintf "gen.late_p99_ms.r%d" r, "ms";
            Printf.sprintf "gen.sent_ratio.r%d" r, "ratio" ]
        | Warmup _, _ -> [])
      phases
  @ [ "gen.max_outstanding", "count" ]

let n_replays = 2

type fixture = {
  v0 : string;               (* the unit's source *)
  stores : Store.t array;    (* evidence: baseline, drifting, stale *)
}

type kind =
  | Compile of { mode : string; exec : bool; src : string; fresh : bool }
  | Report of { which : int; weight : float }
  | Stats

type req = {
  phase : int;               (* index into [phases] *)
  offset : float;            (* due time from the phase start, seconds *)
  unit : int;                (* kernel index; -1 for stats *)
  kind : kind;
  expect : string;           (* compile: cache key; report: store digest *)
  evidence : Store.t;        (* compile: the unit's store when it is due *)
}

let modes = [| "none"; "base"; "heuristic"; "profile" |]

let train_store src =
  let prog, prof, _ = Pipeline.train src in
  Store.of_profile prog prof

(* A unit's fixture, built on first use: its source and three trained
   stores to report. *)
let fixtures : (int, fixture) Hashtbl.t = Hashtbl.create 16

let fixture k =
  match Hashtbl.find_opt fixtures k with
  | Some f -> f
  | None ->
    let w = kernels.(k) in
    let p = w.W.train in
    let f =
      { v0 = w.W.source p;
        stores =
          [| train_store (w.W.source p);
             train_store (w.W.source { p with W.seed = p.W.seed + 101 });
             train_store
               (w.W.source { p with W.size = p.W.size + 3; W.seed = p.W.seed + 17 })
          |] }
    in
    Hashtbl.replace fixtures k f;
    f

let variant_of mode prof =
  match mode with
  | "none" -> Pipeline.Noopt
  | "base" -> Pipeline.Base
  | "heuristic" -> Pipeline.Spec_heuristic
  | _ -> Pipeline.Spec_profile prof

(* The cache key the daemon must answer a compile with. *)
let key_of ~mode ~(store : Store.t) src =
  let variant = variant_of mode (Spec_prof.Profile.create ()) in
  let config =
    Spec_ssapre.Ssapre.default_config (Pipeline.mode_of_variant variant)
  in
  let profile = mode = "profile" in
  Pipeline.cache_key ~rounds ~strength ~deopt:false ~config ~variant
    ~edge_profile:profile
    ~profile_digest:(if profile then Some (Store.digest store) else None)
    src

let replay_s cfg = cfg.seconds /. float_of_int n_replays

(* Due offsets of one phase: Poisson arrivals at its rate. *)
let arrivals rng cfg ((Warmup rate | Rung rate), share) =
  let dur = share *. replay_s cfg in
  let rec go t acc =
    let u = (float_of_int (Srng.bits rng) +. 1.) /. 4611686018427387905. in
    let t = t -. (log u /. float_of_int rate) in
    if t >= dur then List.rev acc else go t (t :: acc)
  in
  go 0. []

(* The seeded request schedule, with every reply's expected key or
   digest computed by mirroring each unit's store in due order. *)
let schedule cfg leg =
  let rng = Srng.split (rng cfg "serve") (string_of_int leg) in
  let fresh = fresh_seed (Srng.split rng "inputs") in
  let mirror = Array.map (fun _ -> Store.empty) kernels in
  let units = List.init (Array.length kernels) Fun.id in
  let slots n k = List.init n (fun i -> i < k) in
  let cross a b = List.concat_map (fun x -> List.map (fun y -> (x, y)) b) a in
  let draw label l = deck (Srng.split rng label) (Array.of_list l) in
  (* per 50 requests: 29 compiles, 15 reports, 6 stats *)
  let kind =
    draw "kind" (List.init 50 (fun i -> if i < 29 then 0 else if i < 44 then 1 else 2))
  in
  (* compiles: unit x mode x (1 in 4 executes), and 1 in 10 fresh *)
  let compile =
    draw "compile" (cross units (cross (Array.to_list modes) (slots 4 1)))
  in
  let fresh_of = draw "fresh" (slots 10 1) in
  let report = draw "report" (cross units [ 0; 1; 2 ]) in
  let weight =
    draw "weight" (List.init 10 (function 0 -> 0.5 | 1 -> 2.0 | _ -> 1.0))
  in
  List.concat
    (List.mapi
       (fun phase ph ->
         List.map
           (fun offset ->
             match kind () with
             | 0 ->
               let unit, (mode, exec) = compile () in
               let is_fresh = fresh_of () in
               let src =
                 let w = kernels.(unit) in
                 if is_fresh then w.W.source { w.W.train with W.seed = fresh () }
                 else (fixture unit).v0
               in
               { phase; offset; unit;
                 kind = Compile { mode; exec; src; fresh = is_fresh };
                 expect = key_of ~mode ~store:mirror.(unit) src;
                 evidence = mirror.(unit) }
             | 1 ->
               let unit, which = report () in
               let weight = weight () in
               mirror.(unit) <-
                 Store.merge_weighted ~wa:1.0 ~wb:weight mirror.(unit)
                   (fixture unit).stores.(which);
               { phase; offset; unit; kind = Report { which; weight };
                 expect = Store.digest mirror.(unit); evidence = mirror.(unit) }
             | _ ->
               { phase; offset; unit = -1; kind = Stats; expect = "";
                 evidence = Store.empty })
           (arrivals (Srng.split rng (Printf.sprintf "arrivals-%d" phase)) cfg ph))
       phases)

let encode q =
  match q.kind with
  | Compile c ->
    Proto.Compile
      { Proto.cq_unit = kernels.(q.unit).W.name; cq_mode = c.mode;
        cq_rounds = rounds; cq_strength = strength; cq_exec = c.exec;
        cq_src = c.src }
  | Report r ->
    Proto.Report_profile
      { rq_unit = kernels.(q.unit).W.name; rq_weight = r.weight;
        rq_store = Store.write (fixture q.unit).stores.(r.which) }
  | Stats -> Proto.Stats

(* ---- the daemon child ---- *)

let child : int option ref = ref None

(* Kill and reap the daemon if it is still running: registered with
   [at_exit], so a failing run never leaves it behind. *)
let reap () =
  match !child with
  | None -> ()
  | Some pid ->
    child := None;
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())

let () = at_exit reap

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable busy : int;        (* request index in flight, or -1 *)
}

type daemon = {
  pid : int;
  conns : conn array;
  cache_dir : string;
  socket : string;
}

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> { fd; buf = Buffer.create 65536; busy = -1 }
  | exception e ->
    Unix.close fd;
    raise e

let write_all fd s =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write_substring fd s !pos (n - !pos)
  done

let chunk = Bytes.create 65536

(* Read what is available; return the complete lines. *)
let read_lines c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "the daemon closed a connection"
  | n ->
    Buffer.add_subbytes c.buf chunk 0 n;
    let s = Buffer.contents c.buf in
    let rec go start acc =
      match String.index_from_opt s start '\n' with
      | Some i -> go (i + 1) (String.sub s start (i - start) :: acc)
      | None ->
        Buffer.clear c.buf;
        Buffer.add_substring c.buf s start (String.length s - start);
        List.rev acc
    in
    go 0 []

(* One blocking request, outside the measured loop. *)
let rpc c req =
  write_all c.fd (Proto.encode_request req ^ "\n");
  let rec wait () =
    match read_lines c with
    | [] -> wait ()
    | line :: _ -> Proto.decode_response line
  in
  wait ()

(* Start `speccc serve` with its default configuration and one job,
   its output going to serve.log in the run directory, and wait until
   it answers on two connections. *)
let spawn cfg =
  let cache_dir = Filename.concat cfg.dir "serve-cache" in
  let socket = Filename.concat cfg.dir "svc.sock" in
  rm_rf cache_dir;
  (try Sys.remove socket with Sys_error _ -> ());
  let log =
    Unix.openfile (Filename.concat cfg.dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process cfg.speccc
      [| cfg.speccc; "serve"; "--socket"; socket; "--cache-dir"; cache_dir;
         "--jobs"; "1" |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  child := Some pid;
  let deadline = now () +. 30. in
  let rec attach () =
    match connect socket with
    | c -> c
    | exception Unix.Unix_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ ->
         child := None;
         failwith "speccc serve exited during start-up (see serve.log)");
      if now () > deadline then failwith "speccc serve did not start";
      Unix.sleepf 0.005;
      attach ()
  in
  let c0 = attach () in
  let c1 = connect socket in
  (match rpc c0 Proto.Stats with
   | Ok (Proto.Stats_reply _) -> ()
   | _ -> failwith "speccc serve did not answer stats");
  { pid; conns = [| c0; c1 |]; cache_dir; socket }

let shutdown d =
  ignore (rpc d.conns.(0) Proto.Shutdown);
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) d.conns;
  (match !child with
   | Some pid when pid = d.pid ->
     child := None;
     ignore (Unix.waitpid [] pid)
   | _ -> ());
  rm_rf d.cache_dir;
  (try Sys.remove d.socket with Sys_error _ -> ())

let stats_of d =
  match rpc d.conns.(0) Proto.Stats with
  | Ok (Proto.Stats_reply kvs) -> kvs
  | _ -> failwith "stats request failed"

let counter kvs name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name kvs))

(* Seconds a process has run on a CPU (/proc/PID/schedstat); 0 when
   unreadable. *)
let cpu_seconds pid =
  match open_in (Printf.sprintf "/proc/%d/schedstat" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
    let ns = try Scanf.sscanf (input_line ic) "%f" Fun.id with _ -> 0. in
    close_in ic;
    ns /. 1e9

(* ---- one replay ---- *)

type result = {
  mutable due : float;
  mutable sent : float;
  mutable fin : float;
  mutable ok : bool;
  mutable served : Proto.served option;
  mutable behind : int;      (* request in flight on the other connection *)
  mutable prog : string;     (* compile replies, checked after the run *)
  mutable output : string;
}

type replay = {
  res : result array;
  starts : float array;      (* per phase *)
  s0 : (string * int) list;  (* daemon counters after the warm-up *)
  s1 : (string * int) list;  (* and at the end *)
  rss_mb : float;
  gc : float * int;
  cpu_s : float;             (* daemon CPU time over the rungs *)
}

(* Run one phase to completion; returns its start time. *)
let run_phase d (reqs : req array) (res : result array) ck ~deadline idx =
  let start = now () in
  Array.iter (fun i -> res.(i).due <- start +. reqs.(i).offset) idx;
  let pending = ref (Array.to_list idx) in
  let left = ref (Array.length idx) in
  let unit_busy = Hashtbl.create 16 in
  let send c i =
    let q = reqs.(i) in
    let line = Trace.span "proto.encode" (fun () -> Proto.encode_request (encode q)) in
    Trace.add "proto.bytes_out" (float_of_int (String.length line + 1));
    res.(i).sent <- now ();
    write_all c.fd (line ^ "\n");
    c.busy <- i;
    if q.unit >= 0 then Hashtbl.replace unit_busy q.unit ();
    res.(i).behind <- d.conns.(if c == d.conns.(0) then 1 else 0).busy
  in
  let finish c line =
    let i = c.busy in
    let q = reqs.(i) and r = res.(i) in
    r.fin <- now ();
    c.busy <- -1;
    if q.unit >= 0 then Hashtbl.remove unit_busy q.unit;
    decr left;
    ck.attempted <- ck.attempted + 1;
    Trace.add "proto.bytes_in" (float_of_int (String.length line + 1));
    match Trace.span "proto.decode" (fun () -> Proto.decode_response line), q.kind with
    | Ok (Proto.Compiled cr), Compile _ ->
      r.ok <- cr.Proto.cr_key = q.expect;
      r.served <- Some cr.Proto.cr_served;
      r.prog <- cr.Proto.cr_prog;
      r.output <- cr.Proto.cr_output;
      if not r.ok then fail ck "serve request %d: cache key differs" i
    | Ok (Proto.Profiled pr), Report _ ->
      r.ok <- pr.Proto.rr_digest = q.expect;
      if not r.ok then fail ck "serve request %d: store digest differs" i
    | Ok (Proto.Stats_reply _), Stats -> r.ok <- true
    | Ok (Proto.Error m), _ -> fail ck "serve request %d: daemon error: %s" i m
    | Ok _, _ -> fail ck "serve request %d: reply of the wrong kind" i
    | Error m, _ -> fail ck "serve request %d: undecodable reply: %s" i m
  in
  while !left > 0 do
    let t = now () in
    if t > deadline then failwith "serve run exceeded its time limit";
    (* hand due requests to idle connections, oldest first, skipping
       units that already have a request in flight *)
    Array.iter
      (fun c ->
        if c.busy < 0 then
          let rec pick skipped = function
            | i :: rest when res.(i).due <= t ->
              let u = reqs.(i).unit in
              if u >= 0 && Hashtbl.mem unit_busy u then pick (i :: skipped) rest
              else begin
                send c i;
                pending := List.rev_append skipped rest
              end
            | _ -> ()
          in
          pick [] !pending)
      d.conns;
    let busy = List.filter (fun c -> c.busy >= 0) (Array.to_list d.conns) in
    (* what is due now is either sent or waits for a reply, so sleep
       until a reply or the next due time *)
    let timeout =
      match List.find_opt (fun i -> res.(i).due > t) !pending with
      | Some i when List.length busy < Array.length d.conns ->
        max 0. (res.(i).due -. now ())
      | _ -> 1.0
    in
    match Unix.select (List.map (fun c -> c.fd) busy) [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun c -> if List.mem c.fd ready then List.iter (finish c) (read_lines c))
        busy
  done;
  start

let replay d reqs idx ck ~deadline =
  let res =
    Array.map
      (fun _ ->
        { due = 0.; sent = 0.; fin = 0.; ok = false; served = None;
          behind = -1; prog = ""; output = "" })
      reqs
  in
  let run p = run_phase d reqs res ck ~deadline idx.(p) in
  let warm = run 0 in
  let s0 = stats_of d in
  let gc0 = Gc.quick_stat () in
  let cpu0 = cpu_seconds d.pid in
  let starts =
    Array.append [| warm |] (Array.init (Array.length idx - 1) (fun p -> run (p + 1)))
  in
  let cpu_s = cpu_seconds d.pid -. cpu0 in
  let gc = gc_delta gc0 in
  let s1 = stats_of d in
  ck.attempted <- ck.attempted + 1;
  check ck (counter s1 "errors" = 0. && counter s1 "store_invalid" = 0.)
    "serve: the daemon counted %g errors and %g invalid stores"
    (counter s1 "errors") (counter s1 "store_invalid");
  { res; starts; s0; s1; rss_mb = peak_rss_mb d.pid; gc; cpu_s }

(* One replay of one schedule: the requests, their indices per phase,
   and what the replay observed. *)
type leg = { reqs : req array; idx : int array array; rp : replay }

(* ---- expected replies, checked after the run ---- *)

(* Every compile reply against a direct in-process compile with the same
   evidence and knobs: byte-identical program text and, when it was
   asked for, vm output.  Memoized on the cache key. *)
let verify legs ck =
  let memo = Hashtbl.create 256 in
  let expected q mode src =
    match Hashtbl.find_opt memo q.expect with
    | Some v -> v
    | None ->
      let variant, edge_profile =
        if mode = "profile" then
          let prof, _ = Store.bind q.evidence (Spec_ir.Lower.compile src) in
          (variant_of mode prof, Some prof)
        else (variant_of mode (Spec_prof.Profile.create ()), None)
      in
      let r =
        Pipeline.compile_and_optimize ~rounds ~strength ~edge_profile src variant
      in
      let out =
        lazy
          (match Spec_prof.Vm.run_program (Lazy.force r.Pipeline.vm) with
           | v -> v.Spec_prof.Interp.output
           | exception Spec_prof.Interp.Runtime_error m -> "!runtime error: " ^ m)
      in
      let v = (Spec_ir.Pp.prog_to_string r.Pipeline.prog, out) in
      Hashtbl.replace memo q.expect v;
      v
  in
  List.iter
    (fun l ->
      Array.iteri
        (fun i q ->
          let r = l.rp.res.(i) in
          match q.kind with
          | Compile c when r.ok ->
            let prog, out = expected q c.mode c.src in
            check ck (r.prog = prog)
              "serve %s %s request %d: program differs from a direct compile"
              kernels.(q.unit).W.name c.mode i;
            if c.exec then
              check ck (r.output = Lazy.force out)
                "serve %s %s request %d: execution output differs"
                kernels.(q.unit).W.name c.mode i
          | _ -> ())
        l.reqs)
    legs

(* ---- the workload ---- *)

let run cfg ck =
  let schedules =
    List.init n_replays (fun leg -> Array.of_list (schedule cfg leg))
  in
  let buf = Buffer.create 4096 in
  List.iter
    (Array.iter (fun q ->
         Printf.bprintf buf "%d %.6f %d %s %s\n" q.phase q.offset q.unit
           (match q.kind with
            | Compile c -> Printf.sprintf "compile %s %b %b" c.mode c.exec c.fresh
            | Report r -> Printf.sprintf "report %d %g" r.which r.weight
            | Stats -> "stats")
           q.expect))
    schedules;
  let deadline = now () +. 150. in
  (* one daemon start-up more than there are replays, for the set-up
     time; each replay runs on a fresh daemon, the last one traced *)
  let traced = !Trace.enabled in
  let setups = ref [] in
  let start () =
    Trace.enabled := false;
    let t0 = now () in
    let d = spawn cfg in
    setups := (now () -. t0) :: !setups;
    d
  in
  shutdown (start ());
  let legs =
    List.mapi
      (fun leg reqs ->
        let idx =
          Array.init (List.length phases) (fun p ->
              Array.of_list
                (List.filter (fun i -> reqs.(i).phase = p)
                   (List.init (Array.length reqs) Fun.id)))
        in
        let d = start () in
        Trace.enabled := traced && leg = n_replays - 1;
        let rp = replay d reqs idx ck ~deadline in
        Trace.enabled := false;
        shutdown d;
        { reqs; idx; rp })
      schedules
  in
  Trace.enabled := traced;
  verify legs ck;
  let ms a b = (b -. a) *. 1000. in
  (* the (leg, request) samples of phase [p], pooled over the replays *)
  let samples p pred =
    List.concat_map
      (fun l ->
        List.filter_map
          (fun i -> if pred l i then Some (l, i) else None)
          (Array.to_list l.idx.(p)))
      legs
  in
  let lat (l, i) = ms l.rp.res.(i).due l.rp.res.(i).fin in
  let dist f s = Stats.sorted (List.map f s) in
  let all _ _ = true in
  let rungs =
    List.concat
      (List.mapi
         (fun p (ph, share) ->
           match ph with
           | Rung rate ->
             let s = samples p all in
             let a = dist lat s in
             let failed = List.exists (fun (l, i) -> not l.rp.res.(i).ok) s in
             let on_time (l, i) =
               l.rp.res.(i).sent <= l.rp.starts.(p) +. (share *. replay_s cfg)
             in
             [ (rate, a, (if failed then infinity else Stats.percentile a 0.99),
                dist (fun (l, i) -> ms l.rp.res.(i).due l.rp.res.(i).sent) s,
                ratio (float_of_int (List.length (List.filter on_time s)))
                  (float_of_int (List.length s))) ]
           | Warmup _ -> [])
         phases)
  in
  (* Requests the daemon served per second of its CPU time over the
     rungs: its capacity when kept busy.  Unlike a wall-clock rate at
     saturation, it does not count the time the daemon waits to be
     scheduled or woken, which on a shared host swings from run to run. *)
  let capacity =
    ratio
      (float_of_int (List.fold_left (fun n (_, a, _, _, _) -> n + Array.length a) 0 rungs))
      (Stats.sum (List.map (fun l -> l.rp.cpu_s) legs))
  in
  let measured =
    Option.get (List.find_index (fun (ph, _) -> ph = Rung measured_rung) phases)
  in
  let kind l i = l.reqs.(i).kind in
  let is_compile l i = match kind l i with Compile _ -> true | _ -> false in
  let is_exec l i = match kind l i with Compile c -> c.exec | _ -> false in
  let served l i s = l.rp.res.(i).served = Some s in
  let warm l i = is_compile l i && (not (is_exec l i)) && served l i Proto.Warm in
  let behind_cold l i =
    l.rp.res.(i).behind >= 0 && served l l.rp.res.(i).behind Proto.Cold
  in
  let m_lat = dist lat (samples measured all) in
  let pct pred p = Stats.percentile (dist lat (samples measured pred)) p in
  let count pred = float_of_int (List.length (samples measured pred)) in
  let sum f = Stats.sum (List.map f legs) in
  let delta name = sum (fun l -> counter l.rp.s1 name -. counter l.rp.s0 name) in
  let first = List.hd legs and last = List.nth legs (n_replays - 1) in
  let alloc_w, majors = last.rp.gc in
  let p50_of l =
    Stats.percentile
      (dist (fun i -> lat (l, i)) (Array.to_list l.idx.(measured))) 0.5
  in
  let layer =
    busy_metrics ()
    @ [ "trace.overhead_pct", 100. *. (ratio (p50_of last) (p50_of first) -. 1.);
        "proto.kb_out", Trace.counter "proto.bytes_out" /. 1024.;
        "proto.kb_in", Trace.counter "proto.bytes_in" /. 1024.;
        "service.cold_p50_ms",
        pct (fun l i -> is_compile l i && served l i Proto.Cold) 0.5;
        "service.warm_p50_ms", pct warm 0.5;
        "service.warm_p95_ms", pct warm 0.95;
        "service.exec_p50_ms", pct is_exec 0.5;
        "service.report_p50_ms",
        pct (fun l i -> match kind l i with Report _ -> true | _ -> false) 0.5;
        "service.warm_alone_p50_ms",
        pct (fun l i -> warm l i && not (behind_cold l i)) 0.5;
        "service.warm_behind_cold_p50_ms",
        pct (fun l i -> warm l i && behind_cold l i) 0.5;
        "service.warm_behind_cold_share",
        ratio (count (fun l i -> warm l i && behind_cold l i)) (count warm);
        "service.max_rps",
        Stats.max_rps ~slo:slo_ms
          (List.map (fun (r, _, p99, _, _) -> (float_of_int r, p99)) rungs);
        "service.cold", delta "cold"; "service.warm", delta "warm";
        "service.joined", delta "joined"; "service.parked", delta "parked";
        "service.recompiles", delta "recompiles";
        "service.cache_hit_ratio",
        ratio (delta "cache_hits") (delta "cache_hits" +. delta "cache_misses");
        "service.errors", sum (fun l -> counter l.rp.s1 "errors");
        "gen.max_outstanding",
        (if List.exists (fun l -> Array.exists (fun r -> r.behind >= 0) l.rp.res) legs
         then 2. else 1.);
        "gc.alloc_mw_per_op",
        alloc_w /. float_of_int (max 1 (Array.length last.reqs)) /. 1e6;
        "gc.major", float_of_int majors ]
    @ List.concat_map
        (fun (rate, a, p99, late, sent) ->
          [ Printf.sprintf "service.p50_ms.r%d" rate, Stats.percentile a 0.5;
            Printf.sprintf "service.p99_ms.r%d" rate, p99;
            Printf.sprintf "gen.late_p99_ms.r%d" rate, Stats.percentile late 0.99;
            Printf.sprintf "gen.sent_ratio.r%d" rate, sent ])
        rungs
  in
  { digest = digest_of_buffer buf;
    metrics =
      [ "setup_s", Stats.median !setups;
        "peak_rss_mb", List.fold_left (fun m l -> max m l.rp.rss_mb) 0. legs;
        "throughput_ops_s", capacity ]
      @ latency_metrics m_lat @ layer;
    samples = Array.length m_lat }

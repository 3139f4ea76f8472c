(* Deterministic traffic replay against a live daemon.  See
   traffic.mli. *)

open Spec_driver
module Store = Spec_fdo.Store
module Srng = Spec_stress.Srng
module W = Spec_workloads.Workloads

exception Divergence of string

let div fmt = Printf.ksprintf (fun m -> raise (Divergence m)) fmt

type cell = {
  t_seed : int;
  t_requests : int;
  t_units : int;
  t_cold : int;
  t_warm : int;
  t_joined : int;
  t_parked : int;
  t_reports : int;
  t_recompiles : int;
  t_errors : int;
  t_divergences : int;
  t_p50_ms : float;
  t_p99_ms : float;
  t_wall_s : float;
  t_rps : float;
}

(* ---- per-unit fixtures ---- *)

(* Two source versions per unit (v1 is an edited program: different
   size and input seed, so v0-trained evidence is stale against it)
   and three trained stores: the v0 baseline, a sibling v0 input whose
   counts drift, and the v1 version's own evidence. *)
type fixture = {
  fx_name : string;
  fx_src : string array;            (* version -> source *)
  fx_stores : Store.t array;        (* evidence: v0, v0-drift, v1 *)
  mutable fx_version : int;
  mutable fx_mirror : Store.t;      (* mirror of the daemon's unit store *)
}

let train_store src =
  let prog, prof, _ = Pipeline.train src in
  Store.of_profile prog prof

let make_fixture (w : W.workload) =
  let v0 = w.W.source w.W.train in
  let p1 =
    { w.W.train with W.size = w.W.train.W.size + 3;
      W.seed = w.W.train.W.seed + 17 }
  in
  let v1 = w.W.source p1 in
  let pdrift = { w.W.train with W.seed = w.W.train.W.seed + 101 } in
  { fx_name = w.W.name;
    fx_src = [| v0; v1 |];
    fx_stores =
      [| train_store v0; train_store (w.W.source pdrift); train_store v1 |];
    fx_version = 0;
    fx_mirror = Store.empty }

(* ---- the offline arm ---- *)

(* Direct in-process compiles with the same evidence and knobs, no
   cache: what the daemon must be byte-identical to.  Memoized on the
   same content-addressed key the daemon uses. *)
type offline = {
  ol_prog : string;
  ol_out : string Lazy.t;
}

let rounds = 3
let strength = true

let offline_key ~variant ~edge_profile ~profile_digest src =
  let config =
    Spec_ssapre.Ssapre.default_config (Pipeline.mode_of_variant variant)
  in
  Pipeline.cache_key ~rounds ~strength ~deopt:false ~config ~variant
    ~edge_profile ~profile_digest src

let offline_tbl : (string, offline) Hashtbl.t = Hashtbl.create 64

let offline_compile ~variant ~prof ~digest src =
  let key =
    offline_key ~variant ~edge_profile:(prof <> None) ~profile_digest:digest
      src
  in
  let ol =
    match Hashtbl.find_opt offline_tbl key with
    | Some ol -> ol
    | None ->
      let r =
        match prof with
        | Some p ->
          Pipeline.compile_and_optimize ~rounds ~strength
            ~edge_profile:(Some p) src variant
        | None -> Pipeline.compile_and_optimize ~rounds ~strength src variant
      in
      let ol =
        { ol_prog = Spec_ir.Pp.prog_to_string r.Pipeline.prog;
          ol_out =
            lazy
              (match
                 Spec_prof.Vm.run_program (Lazy.force r.Pipeline.vm)
               with
              | res -> res.Spec_prof.Interp.output
              | exception Spec_prof.Interp.Runtime_error m ->
                "!runtime error: " ^ m) }
      in
      Hashtbl.replace offline_tbl key ol;
      ol
  in
  (key, ol)

(* ---- replay ---- *)

let mode_names = [| "none"; "base"; "heuristic"; "profile"; "profile" |]

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

let counter kvs name =
  match List.assoc_opt name kvs with
  | Some v -> v
  | None -> div "daemon stats reply lacks counter %S" name

let run_traffic_replay ?(quick = false) ?(seed = 1) ?requests () =
  let n_requests =
    match requests with Some n -> n | None -> if quick then 250 else 1200
  in
  let units =
    (if quick then [ "art"; "mcf"; "gzip" ] else List.map (fun w -> w.W.name) W.all)
    |> List.map W.find
  in
  Hashtbl.reset offline_tbl;
  let fixtures = Array.of_list (List.map make_fixture units) in
  let n_units = Array.length fixtures in
  (* server on a private socket + cache *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "speccc-traffic-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket = Filename.concat dir "svc.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let cfg =
    { (Daemon.default_config ~cache_dir) with Daemon.sv_drift = 0.3 }
  in
  let server = Server.spawn cfg ~socket in
  let conns =
    Array.init 2 (fun _ ->
        match Client.connect socket with
        | Ok c -> c
        | Error m -> failwith ("traffic replay: " ^ m))
  in
  (* keys served so far: a repeated key must never be served cold *)
  let seen_keys : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let lat = Array.make n_requests 0. in
  let cold = ref 0 and warm = ref 0 in
  let rng = Srng.of_path seed [ "traffic" ] in
  let rpc i req =
    let c = conns.(i mod Array.length conns) in
    let t0 = Unix.gettimeofday () in
    let resp =
      match Client.rpc c req with
      | Ok r -> r
      | Error m -> failwith ("traffic replay: rpc: " ^ m)
    in
    lat.(i) <- (Unix.gettimeofday () -. t0) *. 1000.;
    resp
  in
  let t_start = Unix.gettimeofday () in
  for i = 0 to n_requests - 1 do
    let r = Srng.split rng (string_of_int i) in
    let fx = fixtures.(Srng.below r n_units) in
    let kind = Srng.below r 100 in
    if kind < 58 then begin
      (* compile request; a unit occasionally upgrades to its edited
         source, making the old keys dead and v0 evidence stale *)
      if fx.fx_version = 0 && Srng.chance r ~ppm:30_000 then
        fx.fx_version <- 1;
      let mode = mode_names.(Srng.below r (Array.length mode_names)) in
      let exec = Srng.chance r ~ppm:250_000 in
      let src = fx.fx_src.(fx.fx_version) in
      let req =
        Proto.Compile
          { Proto.cq_unit = fx.fx_name; cq_mode = mode; cq_rounds = rounds;
            cq_strength = strength; cq_exec = exec; cq_src = src }
      in
      (* offline arm: same evidence, same knobs, no daemon *)
      let variant, prof, digest =
        match mode with
        | "none" -> (Pipeline.Noopt, None, None)
        | "base" -> (Pipeline.Base, None, None)
        | "heuristic" -> (Pipeline.Spec_heuristic, None, None)
        | _ ->
          let prog0 = Spec_ir.Lower.compile src in
          let prof, _ = Store.bind fx.fx_mirror prog0 in
          ( Pipeline.Spec_profile prof, Some prof,
            Some (Store.digest fx.fx_mirror) )
      in
      let key, ol = offline_compile ~variant ~prof ~digest src in
      match rpc i req with
      | Proto.Compiled cr ->
        if cr.Proto.cr_key <> key then
          div "%s %s: daemon key %s, offline key %s" fx.fx_name mode
            cr.Proto.cr_key key;
        if cr.Proto.cr_prog <> ol.ol_prog then
          div "%s %s (%s): daemon program differs from direct compile"
            fx.fx_name mode key;
        if exec && cr.Proto.cr_output <> Lazy.force ol.ol_out then
          div "%s %s (%s): daemon execution output differs" fx.fx_name mode
            key;
        (match cr.Proto.cr_served with
         | Proto.Cold ->
           if Hashtbl.mem seen_keys key then
             div "%s %s: key %s served cold twice" fx.fx_name mode key;
           incr cold
         | Proto.Warm -> incr warm
         | Proto.Joined | Proto.Parked -> ());
        Hashtbl.replace seen_keys key ()
      | Proto.Error m -> div "compile %s: daemon error: %s" fx.fx_name m
      | _ -> div "compile %s: unexpected reply" fx.fx_name
    end
    else if kind < 88 then begin
      (* profile report: baseline, drifting-input or stale-version
         evidence, occasionally down/up-weighted *)
      let store = fx.fx_stores.(Srng.below r 3) in
      let weight =
        match Srng.below r 10 with 0 -> 0.5 | 1 -> 2.0 | _ -> 1.0
      in
      fx.fx_mirror <-
        Store.merge_weighted ~wa:cfg.Daemon.sv_lambda ~wb:weight fx.fx_mirror
          store;
      let req =
        Proto.Report_profile
          { rq_unit = fx.fx_name; rq_weight = weight;
            rq_store = Store.write store }
      in
      match rpc i req with
      | Proto.Profiled pr ->
        if pr.Proto.rr_digest <> Store.digest fx.fx_mirror then
          div "report %s: daemon store digest %s, mirror %s" fx.fx_name
            pr.Proto.rr_digest (Store.digest fx.fx_mirror)
      | Proto.Error m -> div "report %s: daemon error: %s" fx.fx_name m
      | _ -> div "report %s: unexpected reply" fx.fx_name
    end
    else begin
      match rpc i Proto.Stats with
      | Proto.Stats_reply _ -> ()
      | _ -> div "stats: unexpected reply"
    end
  done;
  let wall = Unix.gettimeofday () -. t_start in
  (* final counters, then shut down *)
  let kvs =
    match Client.rpc conns.(0) Proto.Stats with
    | Ok (Proto.Stats_reply kvs) -> kvs
    | Ok _ | Error _ -> div "final stats request failed"
  in
  Array.iter Client.close conns;
  Server.stop server;
  Experiments.rm_rf_cache cache_dir;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  if counter kvs "errors" <> 0 then
    div "daemon error counter is %d after a well-formed replay"
      (counter kvs "errors");
  if counter kvs "store_invalid" <> 0 then
    div "%d unit stores failed validation" (counter kvs "store_invalid");
  let sorted = Array.copy lat in
  Array.sort compare sorted;
  { t_seed = seed;
    t_requests = n_requests;
    t_units = n_units;
    t_cold = !cold;
    t_warm = !warm;
    t_joined = counter kvs "joined";
    t_parked = counter kvs "parked";
    t_reports = counter kvs "reports";
    t_recompiles = counter kvs "recompiles";
    t_errors = counter kvs "errors";
    t_divergences = 0;
    t_p50_ms = percentile sorted 0.5;
    t_p99_ms = percentile sorted 0.99;
    t_wall_s = wall;
    t_rps = (if wall > 0. then float_of_int n_requests /. wall else 0.) }

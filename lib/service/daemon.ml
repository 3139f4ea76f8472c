(* The compile service daemon core: warm answers from the
   content-addressed cache, a cross-wakeup single-flight registry for
   cold compiles, and the online FDO loop (report -> decayed merge ->
   drift -> background recompile + swap).  The core is a deterministic
   state machine — no sockets; the select loop that drives it lives in
   server.ml.  See daemon.mli. *)

open Spec_driver
module Store = Spec_fdo.Store
module Cache = Spec_fdo.Cache

type config = {
  sv_cache_dir : string;
  sv_max_entries : int option;
  sv_lambda : float;
  sv_drift : float;
  sv_verbose : bool;
}

let default_config ~cache_dir =
  { sv_cache_dir = cache_dir;
    sv_max_entries = None;
    sv_lambda = 1.0;
    sv_drift = 0.25;
    sv_verbose = false }

(* Per-unit FDO state: accumulated evidence, the snapshot of it the
   current artifact was compiled against, and enough of the last
   compile request to rerun it when evidence drifts. *)
type unit_state = {
  mutable u_store : Store.t;
  mutable u_snapshot : Store.t;
  mutable u_src : string option;
  mutable u_rounds : int;
  mutable u_strength : bool;
  mutable u_current : Pipeline.result option;
  mutable u_pending : bool;          (* queued for background recompile *)
}

(* ---- compile plans ---- *)

type plan = {
  p_variant : Pipeline.variant;
  p_prof : Spec_prof.Profile.t option;   (* edge profile, profile mode only *)
  p_digest : string option;
  p_match_ppm : int;
  p_key : string;
}

(* ---- the single-flight registry ---- *)

(* A waiter's place in line: the creator runs the compile (and is
   served cold or warm depending on the cache); everyone else rides
   it — joined when they arrived in the same wakeup as the creator,
   parked when they arrived in a later one. *)
type waiter_kind = Wcreator | Wjoined | Wparked

type waiter = {
  w_id : int;
  w_kind : waiter_kind;
  w_exec : bool;
}

(* One in-flight compile key.  Created at submission, completed by
   {!complete_one}; persists across wakeups, so same-key requests from
   any number of batches cost exactly one compile.  The plan (and, for
   profile mode, the evidence snapshot it bound) is fixed at creation:
   reports merged while the flight is pending do not retroactively
   change what the waiters were promised. *)
type flight = {
  fl_plan : plan;                    (* p_key is the registry key *)
  fl_unit : string;
  fl_rounds : int;
  fl_strength : bool;
  fl_src : string;
  fl_epoch : int;                    (* wakeup that created the flight *)
  fl_snapshot : Store.t;             (* unit evidence bound by the plan *)
  mutable fl_waiters : waiter list;  (* reversed; creator is last *)
}

type t = {
  cfg : config;
  tcache : Cache.t;
  units : (string, unit_state) Hashtbl.t;
  inflight : (string, flight) Hashtbl.t;
  flight_q : string Queue.t;         (* completion order = creation order *)
  mutable epoch : int;               (* current wakeup *)
  mutable recompile_q : string list; (* reversed queue of unit names *)
  mutable t_stopped : bool;
  mutable c_requests : int;
  mutable c_cold : int;
  mutable c_warm : int;
  mutable c_joined : int;
  mutable c_parked : int;
  mutable c_reports : int;
  mutable c_recompiles : int;
  mutable c_errors : int;
}

let create cfg =
  if cfg.sv_lambda < 0. || cfg.sv_lambda > 1. then
    invalid_arg "Daemon.create: lambda must be in [0, 1]";
  { cfg;
    tcache = Cache.create ?max_entries:cfg.sv_max_entries cfg.sv_cache_dir;
    units = Hashtbl.create 16;
    inflight = Hashtbl.create 16;
    flight_q = Queue.create ();
    epoch = 0;
    recompile_q = [];
    t_stopped = false;
    c_requests = 0; c_cold = 0; c_warm = 0; c_joined = 0; c_parked = 0;
    c_reports = 0; c_recompiles = 0; c_errors = 0 }

let stopped t = t.t_stopped
let cache t = t.tcache

let unit_state t name =
  match Hashtbl.find_opt t.units name with
  | Some u -> u
  | None ->
    let u =
      { u_store = Store.empty; u_snapshot = Store.empty; u_src = None;
        u_rounds = 3; u_strength = true; u_current = None;
        u_pending = false }
    in
    Hashtbl.add t.units name u;
    u

let current_artifact t name =
  match Hashtbl.find_opt t.units name with
  | Some u -> u.u_current
  | None -> None

let unit_stores t =
  Hashtbl.fold (fun name u acc -> (name, u.u_store) :: acc) t.units []
  |> List.sort compare

let counters t =
  let cs = Cache.stats t.tcache in
  let invalid =
    Hashtbl.fold
      (fun _ u n ->
        match Store.validate u.u_store with Ok () -> n | Error _ -> n + 1)
      t.units 0
  in
  let drift_ppm_max =
    Hashtbl.fold
      (fun _ u m ->
        max m
          (int_of_float
             (Store.distance u.u_snapshot u.u_store *. 1_000_000. +. 0.5)))
      t.units 0
  in
  let lookups = cs.Cache.hits + cs.Cache.misses in
  let hit_ppm =
    if lookups = 0 then 0 else cs.Cache.hits * 1_000_000 / lookups
  in
  [ "requests", t.c_requests;
    "cold", t.c_cold;
    "warm", t.c_warm;
    "joined", t.c_joined;
    "parked", t.c_parked;
    "reports", t.c_reports;
    "recompiles", t.c_recompiles;
    "errors", t.c_errors;
    "units", Hashtbl.length t.units;
    "inflight", Hashtbl.length t.inflight;
    "cache_hits", cs.Cache.hits;
    "cache_misses", cs.Cache.misses;
    "cache_stores", cs.Cache.stores;
    "cache_evictions", cs.Cache.evictions;
    "cache_store_failures", cs.Cache.store_failures;
    "cache_hit_ppm", hit_ppm;
    "cache_length", Cache.length t.tcache;
    "store_drift_ppm_max", drift_ppm_max;
    "store_invalid", invalid ]

let ppm_of_rate r = int_of_float (r *. 1_000_000. +. 0.5)

(* The reply to a compile that raised: on malformed source the frontend
   does; anything else is an internal failure of the pipeline. *)
let compile_error = function
  | Spec_ir.Ast.Frontend_error _ as e -> "frontend: " ^ Printexc.to_string e
  | e -> "compile: " ^ Printexc.to_string e

(* Resolve a compile request against the unit's accumulated evidence.
   Profile mode binds the store to the freshly lowered source —
   exactly what `speccc --profile-in` does — so stale evidence drops
   sites instead of poisoning the compile. *)
let plan_of t ~unit_name ~mode ~rounds ~strength src =
  let finish variant prof digest match_ppm =
    let config =
      Spec_ssapre.Ssapre.default_config (Pipeline.mode_of_variant variant)
    in
    let key =
      Pipeline.cache_key ~rounds ~strength ~deopt:false ~config ~variant
        ~edge_profile:(prof <> None) ~profile_digest:digest src
    in
    Ok { p_variant = variant; p_prof = prof; p_digest = digest;
         p_match_ppm = match_ppm; p_key = key }
  in
  match mode with
  | "none" -> finish Pipeline.Noopt None None 1_000_000
  | "base" -> finish Pipeline.Base None None 1_000_000
  | "heuristic" -> finish Pipeline.Spec_heuristic None None 1_000_000
  | "aggressive" -> finish Pipeline.Aggressive None None 1_000_000
  | "profile" ->
    let u = unit_state t unit_name in
    (match Spec_ir.Lower.compile src with
     | prog0 ->
       let prof, mr = Store.bind u.u_store prog0 in
       finish (Pipeline.Spec_profile prof) (Some prof)
         (Some (Store.digest u.u_store))
         (ppm_of_rate (Store.match_rate mr))
     | exception e -> Error (compile_error e))
  | m -> Error (Printf.sprintf "unknown mode %S" m)

let run_compile t ~rounds ~strength ~(plan : plan) src =
  match plan.p_prof with
  | Some prof ->
    Pipeline.compile_and_optimize ~rounds ~strength
      ~edge_profile:(Some prof) ~cache:t.tcache
      ?profile_digest:plan.p_digest src plan.p_variant
  | None ->
    Pipeline.compile_and_optimize ~rounds ~strength ~cache:t.tcache src
      plan.p_variant

let vm_output (r : Pipeline.result) =
  match Spec_prof.Vm.run_program (Lazy.force r.Pipeline.vm) with
  | res -> res.Spec_prof.Interp.output
  | exception Spec_prof.Interp.Runtime_error m -> "!runtime error: " ^ m

let log t fmt =
  if t.cfg.sv_verbose then Printf.eprintf ("speccc-serve: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

(* ---- request submission ---- *)

type submitted =
  | Immediate of Proto.response
  | Parked_on of string

let begin_wakeup t = t.epoch <- t.epoch + 1

let refuse t msg =
  t.c_requests <- t.c_requests + 1;
  t.c_errors <- t.c_errors + 1;
  Proto.Error msg

let has_inflight t = not (Queue.is_empty t.flight_q)

let do_report t ~unit_name ~weight store_text =
  if not (Float.is_finite weight) || weight < 0. then begin
    t.c_errors <- t.c_errors + 1;
    Proto.Error "report-profile: weight must be finite and non-negative"
  end
  else
    match Store.read store_text with
    | Error m ->
      t.c_errors <- t.c_errors + 1;
      Proto.Error ("report-profile: " ^ m)
    | Ok report ->
      let u = unit_state t unit_name in
      u.u_store <-
        Store.merge_weighted ~wa:t.cfg.sv_lambda ~wb:weight u.u_store report;
      t.c_reports <- t.c_reports + 1;
      let drift = Store.distance u.u_snapshot u.u_store in
      let recompile =
        drift > t.cfg.sv_drift && u.u_src <> None && not u.u_pending
      in
      if recompile then begin
        u.u_pending <- true;
        t.recompile_q <- unit_name :: t.recompile_q
      end;
      log t "report %s: runs=%d drift=%.3f%s" unit_name u.u_store.Store.runs
        drift (if recompile then " -> recompile" else "");
      Proto.Profiled
        { Proto.rr_runs = u.u_store.Store.runs;
          rr_digest = Store.digest u.u_store;
          rr_drift = drift;
          rr_recompiled = recompile || u.u_pending }

(* Submit one request under the caller-chosen waiter [id].  Reports,
   stats, shutdown and malformed compiles are answered immediately;
   every well-formed compile goes through the single-flight registry:
   the first request for a key creates the flight (and will be served
   cold or warm when it completes), later ones ride it — [joined]
   within the creating wakeup, [parked] across wakeups. *)
let submit t ~id (req : Proto.request) : submitted =
  t.c_requests <- t.c_requests + 1;
  match req with
  | Proto.Report_profile { rq_unit; rq_weight; rq_store } ->
    Immediate (do_report t ~unit_name:rq_unit ~weight:rq_weight rq_store)
  | Proto.Stats -> Immediate (Proto.Stats_reply (counters t))
  | Proto.Shutdown ->
    t.t_stopped <- true;
    Immediate Proto.Bye
  | Proto.Compile c -> (
    match
      plan_of t ~unit_name:c.Proto.cq_unit ~mode:c.Proto.cq_mode
        ~rounds:c.Proto.cq_rounds ~strength:c.Proto.cq_strength
        c.Proto.cq_src
    with
    | Error m ->
      t.c_errors <- t.c_errors + 1;
      Immediate (Proto.Error m)
    | Ok plan ->
      (* Only profile-mode compiles touch unit FDO state: the unit's
         source is what a drift-triggered recompile reruns, and that
         recompile is a profile compile, so a stateless-mode request
         must not replace it. *)
      let snapshot =
        if c.Proto.cq_mode = "profile" then begin
          let u = unit_state t c.Proto.cq_unit in
          u.u_src <- Some c.Proto.cq_src;
          u.u_rounds <- c.Proto.cq_rounds;
          u.u_strength <- c.Proto.cq_strength;
          u.u_store
        end
        else Store.empty
      in
      (match Hashtbl.find_opt t.inflight plan.p_key with
       | Some fl ->
         let kind =
           if fl.fl_epoch = t.epoch then begin
             t.c_joined <- t.c_joined + 1;
             Wjoined
           end
           else begin
             t.c_parked <- t.c_parked + 1;
             Wparked
           end
         in
         fl.fl_waiters <-
           { w_id = id; w_kind = kind; w_exec = c.Proto.cq_exec }
           :: fl.fl_waiters;
         log t "compile %s %s: %s in-flight key=%s" c.Proto.cq_unit
           c.Proto.cq_mode
           (match kind with Wjoined -> "joined" | _ -> "parked")
           plan.p_key;
         Parked_on plan.p_key
       | None ->
         let fl =
           { fl_plan = plan;
             fl_unit = c.Proto.cq_unit;
             fl_rounds = c.Proto.cq_rounds;
             fl_strength = c.Proto.cq_strength;
             fl_src = c.Proto.cq_src;
             fl_epoch = t.epoch;
             fl_snapshot = snapshot;
             fl_waiters =
               [ { w_id = id; w_kind = Wcreator; w_exec = c.Proto.cq_exec } ]
           }
         in
         Hashtbl.add t.inflight plan.p_key fl;
         Queue.add plan.p_key t.flight_q;
         Parked_on plan.p_key))

(* Drift-triggered background recompiles: run once the registry is
   empty (after every waiter of the wakeup is answered), through the
   same cache (the new evidence digest makes a new key, so this is the
   cold compile that future warm requests for the unit's profile
   variant will hit).  The swap of the unit's current artifact is a
   single mutation — requests never observe a half-updated unit. *)
let drain_recompiles t =
  let q = List.rev t.recompile_q in
  t.recompile_q <- [];
  List.iter
    (fun name ->
      let u = unit_state t name in
      u.u_pending <- false;
      match u.u_src with
      | None -> ()
      | Some src ->
        (match
           plan_of t ~unit_name:name ~mode:"profile" ~rounds:u.u_rounds
             ~strength:u.u_strength src
         with
         | Error m -> log t "recompile %s failed: %s" name m
         | Ok plan ->
           (match
              run_compile t ~rounds:u.u_rounds ~strength:u.u_strength ~plan
                src
            with
            | exception e ->
              t.c_errors <- t.c_errors + 1;
              log t "recompile %s failed: %s" name (compile_error e)
            | r ->
              u.u_current <- Some r;
              u.u_snapshot <- u.u_store;
              t.c_recompiles <- t.c_recompiles + 1;
              log t "recompile %s: key=%s from_cache=%b" name plan.p_key
                r.Pipeline.from_cache)))
    q

let quiesce t = if not (has_inflight t) then drain_recompiles t

(* Land the oldest in-flight compile and answer all of its waiters, in
   submission order.  The creator's tag records how the compile was
   actually satisfied (cold pipeline run or warm cache hit); joiners
   keep the joined/parked tag fixed at submission.  A compile that
   raises (malformed source in a mode that lowers it only here) answers
   every waiter with an error; the flight is already gone from the
   registry, so a later request for the key compiles again. *)
let complete_one t : (int * Proto.response) list =
  match Queue.take_opt t.flight_q with
  | None -> []
  | Some key ->
    let fl =
      match Hashtbl.find_opt t.inflight key with
      | Some fl -> fl
      | None -> assert false (* queue and registry are one-to-one *)
    in
    Hashtbl.remove t.inflight key;
    match
      run_compile t ~rounds:fl.fl_rounds ~strength:fl.fl_strength
        ~plan:fl.fl_plan fl.fl_src
    with
    | exception e ->
      let msg = compile_error e in
      t.c_errors <- t.c_errors + List.length fl.fl_waiters;
      log t "compile %s: failed key=%s: %s" fl.fl_unit key msg;
      List.rev_map (fun w -> (w.w_id, Proto.Error msg)) fl.fl_waiters
    | r ->
      (* a profile-fed compile is the point the artifact catches up with
         the evidence its plan bound: reset the drift baseline to the
         snapshot fixed at submission *)
      (match fl.fl_plan.p_variant with
       | Pipeline.Spec_profile _ ->
         let u = unit_state t fl.fl_unit in
         u.u_current <- Some r;
         u.u_snapshot <- fl.fl_snapshot
       | _ -> ());
      let creator_tag =
        if r.Pipeline.from_cache then begin
          t.c_warm <- t.c_warm + 1;
          Proto.Warm
        end
        else begin
          t.c_cold <- t.c_cold + 1;
          Proto.Cold
        end
      in
      log t "compile %s: %s key=%s waiters=%d" fl.fl_unit
        (match creator_tag with Proto.Cold -> "cold" | _ -> "warm")
        key
        (List.length fl.fl_waiters);
      let prog_text = Spec_ir.Pp.prog_to_string r.Pipeline.prog in
      let out = lazy (vm_output r) in
      let plan = fl.fl_plan in
      List.rev_map
        (fun w ->
          let served =
            match w.w_kind with
            | Wcreator -> creator_tag
            | Wjoined -> Proto.Joined
            | Wparked -> Proto.Parked
          in
          ( w.w_id,
            Proto.Compiled
              { Proto.cr_served = served;
                cr_key = plan.p_key;
                cr_digest =
                  (match plan.p_digest with Some d -> d | None -> "-");
                cr_match_ppm = plan.p_match_ppm;
                cr_prog = prog_text;
                cr_output = (if w.w_exec then Lazy.force out else "") } ))
        fl.fl_waiters

(* ---- the synchronous facade ---- *)

(* One wakeup's worth of requests, fully drained: submit everything,
   land every flight, run queued recompiles, and hand the responses
   back in request order.  Same-key requests within the batch dedupe
   as creator + joined; the parked tag only appears when wakeups are
   interleaved by the caller (the socket server, or the registry
   tests) via submit/complete_one directly. *)
let handle_batch t reqs =
  begin_wakeup t;
  let n = List.length reqs in
  let out = Array.make n None in
  List.iteri
    (fun i req ->
      match submit t ~id:i req with
      | Immediate resp -> out.(i) <- Some resp
      | Parked_on _ -> ())
    reqs;
  while has_inflight t do
    List.iter (fun (id, resp) -> out.(id) <- Some resp) (complete_one t)
  done;
  drain_recompiles t;
  Array.to_list out
  |> List.map (function
       | Some resp -> resp
       | None -> assert false (* every waiter was answered above *))

let handle t req = List.hd (handle_batch t [ req ])

(* The [train] workload: recording and merging profiles, as
   `speccc profile record`, `profile merge` and `stale-check` do.

   One op trains a kernel's train source at a seeded input seed (the
   profiling interpreter), turns the profile into a store, writes and
   re-reads it, merges it into the kernel's accumulated store and binds
   the result to the program.  The optimizer does no work here.  Kernel
   shares are fixed per block of 20 ops and chosen so that each
   reported percentile falls inside one kernel's cluster of op times
   rather than between two, where a one-op shift in the mix would move
   it far. *)

open Spec_driver
open Common
module W = Spec_workloads.Workloads
module Store = Spec_fdo.Store

(* each pass starts from fresh accumulated stores; an op's time is its
   best *)
let n_passes = 3

(* nominal ops per second on the reference box *)
let ops_per_s = 70.

(* Ops per block of 20.  In ascending op time (cipher, ctsel ~1 ms;
   twolf, equake, vpr 6-9; gzip, art, ammp 13-15; parser 19; mcf 37)
   the shares put the p50 in the middle of the gzip ops and the p90 and
   p99 inside the mcf ops. *)
let kernel_mix =
  List.concat_map
    (fun (name, n) -> List.init n (fun _ -> kernel_ix name))
    [ "cipher", 1; "ctsel", 2; "twolf", 2; "equake", 2; "vpr", 2; "gzip", 2;
      "art", 2; "ammp", 2; "parser", 2; "mcf", 3 ]

(* Input seeds per kernel: each recurs, so every (kernel, input) store
   digest can be checked to repeat. *)
let inputs_per_kernel = 8

let op_list cfg =
  let rng = rng cfg "train" in
  let fresh = fresh_seed (Srng.split rng "inputs") in
  let pools =
    Array.map (fun _ -> Array.init inputs_per_kernel (fun _ -> fresh ())) kernels
  in
  let pick = Srng.split rng "pick" in
  let next = deck (Srng.split rng "kernel") (Array.of_list kernel_mix) in
  let n =
    max 1 (int_of_float (Float.round (ops_per_s *. cfg.seconds /. float_of_int n_passes)))
  in
  Array.init n (fun _ ->
      let k = next () in
      (k, pools.(k).(Srng.below pick inputs_per_kernel)))

let source (k, input) =
  let w = kernels.(k) in
  w.W.source { w.W.train with W.seed = input }

(* The accumulated store of every kernel the ops train starts from one
   training run on its default train input. *)
let setup ops () =
  let acc = Array.make (Array.length kernels) Store.empty in
  Array.iter
    (fun (k, _) ->
      if acc.(k) == Store.empty then begin
        let prog, prof, _ = Pipeline.train (W.train_source kernels.(k)) in
        acc.(k) <- Store.of_profile prog prof
      end)
    ops;
  acc

type obs = { text : string; read_ok : bool; match_rate : float; steps : int }

let step (acc : Store.t array) (k, _) src =
  let prog, prof, res =
    if !Trace.enabled then begin
      (* [Pipeline.train], split into its two calls *)
      let prog = Trace.span "frontend" (fun () -> Spec_ir.Lower.compile src) in
      Trace.add "frontend.bytes" (float_of_int (String.length src));
      let prof, res =
        Trace.span "prof" (fun () -> Spec_prof.Profiler.profile prog)
      in
      (prog, prof, res)
    end
    else Pipeline.train src
  in
  let st = Trace.span "fdo.of_profile" (fun () -> Store.of_profile prog prof) in
  let text = Trace.span "fdo.write" (fun () -> Store.write st) in
  let read = Trace.span "fdo.read" (fun () -> Store.read text) in
  let read_ok, merged =
    match read with
    | Ok st' ->
      (true, Trace.span "fdo.merge" (fun () ->
           Store.merge_weighted ~wa:1.0 ~wb:1.0 acc.(k) st'))
    | Error _ -> (false, acc.(k))
  in
  acc.(k) <- merged;
  let _, mr = Trace.span "fdo.bind" (fun () -> Store.bind merged prog) in
  { text; read_ok; match_rate = Store.match_rate mr;
    steps = res.Spec_prof.Interp.counters.Spec_prof.Interp.steps }

let run cfg ck =
  let ops = op_list cfg in
  let buf = Buffer.create 4096 in
  Array.iter (fun (k, s) -> Printf.bprintf buf "%s %d\n" kernels.(k).W.name s) ops;
  let digests = Hashtbl.create 128 in
  let pass _ acc =
    let durations = Array.make (Array.length ops) 0. in
    let steps = ref 0 and store_bytes = ref 0 and match_sum = ref 0. in
    let gc0 = Gc.quick_stat () in
    Array.iteri
      (fun i ((k, s) as op) ->
        Trace.set_op (i + 1);
        let src = source op in
        let t0 = now () in
        let o = step acc op src in
        durations.(i) <- now () -. t0;
        ck.attempted <- ck.attempted + 1;
        steps := !steps + o.steps;
        store_bytes := !store_bytes + String.length o.text;
        match_sum := !match_sum +. o.match_rate;
        let what = Printf.sprintf "%s input %d" kernels.(k).W.name s in
        let d = Digest.string o.text in
        (match Hashtbl.find_opt digests op with
         | Some d0 -> check ck (d0 = d) "train %s: store digest did not repeat" what
         | None -> Hashtbl.replace digests op d);
        check ck o.read_ok "train %s: store did not read back" what;
        check ck (o.match_rate = 1.0) "train %s: same-source bind matched %.4f"
          what o.match_rate)
      ops;
    let gc = gc_delta gc0 in
    Array.iteri
      (fun k st ->
        if st != Store.empty then begin
          ck.attempted <- ck.attempted + 1;
          check ck
            (Store.validate st = Ok ())
            "train %s: accumulated store fails validation" kernels.(k).W.name
        end)
      acc;
    (durations, gc, !steps, !store_bytes, !match_sum)
  in
  let results, setup_s =
    passes ~k:n_passes ~setup:(setup ops) ~teardown:ignore ~pass
  in
  let durations = best (List.map (fun (d, _, _, _, _) -> d) results) in
  let _, (alloc_w, majors), steps, store_bytes, match_sum =
    List.nth results (n_passes - 1)
  in
  let n = float_of_int (Array.length durations) in
  let busy = busy_metrics () in
  let layer =
    busy
    @ trace_metrics
        ~pass_times:
          (List.map (fun (d, _, _, _, _) -> Array.fold_left ( +. ) 0. d) results)
    @ [ "frontend.kb_lowered", Trace.counter "frontend.bytes" /. 1024.;
        "prof.msteps_s",
        ratio (float_of_int steps)
          (Option.value ~default:0. (List.assoc_opt "prof.busy_s" busy))
        /. 1e6;
        "fdo.match_ratio", ratio match_sum n;
        "fdo.store_kb", float_of_int store_bytes /. 1024.;
        "gc.alloc_mw_per_op", alloc_w /. n /. 1e6;
        "gc.major", float_of_int majors ]
  in
  { digest = digest_of_buffer buf;
    metrics =
      ("setup_s", setup_s) :: ("peak_rss_mb", peak_rss_mb 0)
      :: closed_loop_metrics durations
      @ layer;
    samples = Array.length durations }

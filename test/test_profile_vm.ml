(* Profiling on the vm: the profile-mode bytecode must reproduce the
   profiles the tree engine's instrumentation hooks recorded, byte for
   byte.

   The tables below were recorded with hook-based profiling on the tree
   engine (MD5 of the canonical store text of every kernel's profile on
   its train input and two more seeded inputs; load-reuse counts of
   every kernel's base build on its train input).  A profile run must
   also leave the run itself alone, and its counters must be internally
   consistent: flow is conserved at every block, and a reference site
   never observes more LOCs than it executed. *)

open Spec_ir
open Spec_prof
module W = Spec_workloads.Workloads

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* the inputs a kernel is profiled on: train, and train at two other
   seeds *)
let inputs (w : W.workload) =
  [ "train", w.W.train;
    "s1", { w.W.train with W.seed = 1009 };
    "s2", { w.W.train with W.seed = 7331 } ]

let store_digests =
  [
    ("art", "train", "8547fb9294742980399eee309519e687");
    ("art", "s1", "d00b0a9f39e4d95931292941e51d545c");
    ("art", "s2", "272c1fb3414340352322e84cc035f6de");
    ("ammp", "train", "e3050701226bafca79456215663eef89");
    ("ammp", "s1", "75892fac06044372b77c89bb41f7b34f");
    ("ammp", "s2", "927c25bfd1b049af3916973919509783");
    ("equake", "train", "23bf72ee83ba7bfbaf9a9e70d4d892ce");
    ("equake", "s1", "27c660aa3b49842363bdb5471c517b69");
    ("equake", "s2", "bfc122f78a2ebe4db14da41c5894e1da");
    ("gzip", "train", "ad1d2e772a279f799cc73e1dfdfd51c7");
    ("gzip", "s1", "58ef3944a8e149fe868270a9fae6b4f2");
    ("gzip", "s2", "629ba79e7a5394949d9f45064890c138");
    ("mcf", "train", "230df298e3005b4f44f870008ecb6cb0");
    ("mcf", "s1", "703c18bbcd6b2b31c68b2e8d67908eb2");
    ("mcf", "s2", "e856d26bb5da2a958898a5e7f4389df0");
    ("parser", "train", "c27530607287d8a3d67892c86e7be3eb");
    ("parser", "s1", "28c93ba121a9a37ee5d405d873fa95bc");
    ("parser", "s2", "1de154c7df6c350c94829445465530f6");
    ("twolf", "train", "ada2866f260e6f52c3e0a1d8d1caccff");
    ("twolf", "s1", "bc1dad76b6bf1966323749baae38bdcf");
    ("twolf", "s2", "2013677070df7b71a68f18ff3f66a494");
    ("vpr", "train", "8f57d3a4c28c5384c103d1645b6b8b23");
    ("vpr", "s1", "22dd5dedc99238c2513adb1b4dcd3306");
    ("vpr", "s2", "a878d9de0e4091f6b2deea230a914acd");
    ("cipher", "train", "2feeb004614a69fcb361dccab7a1a85b");
    ("cipher", "s1", "799e32122f171c0bf83f61f3bb586c2e");
    ("cipher", "s2", "f6e5accdeb8a0b97c4e64cd13150a40c");
    ("ctsel", "train", "014fd696dbd75729d5a55a9f99e4a32b");
    ("ctsel", "s1", "5909293183445e4e431066229a0d810d");
    ("ctsel", "s2", "2d5d7c59980279c2467eaf5c4513f23f");
  ]

(* (kernel, dynamic loads, potential reuses) *)
let reuse_counts =
  [
    ("art", 24221, 4950);
    ("ammp", 29076, 7659);
    ("equake", 11560, 3264);
    ("gzip", 19841, 3622);
    ("mcf", 71963, 5988);
    ("parser", 41045, 1812);
    ("twolf", 8943, 1745);
    ("vpr", 12273, 1512);
    ("cipher", 780, 192);
    ("ctsel", 1452, 288);
  ]

let test_store_digests () =
  List.iter
    (fun (w : W.workload) ->
      List.iter
        (fun (tag, params) ->
          let prog = Lower.compile (w.W.source params) in
          let prof, _ = Profiler.profile prog in
          let expected =
            match
              List.find_opt
                (fun (k, t, _) -> k = w.W.name && t = tag)
                store_digests
            with
            | Some (_, _, d) -> d
            | None -> Alcotest.failf "no recorded digest for %s/%s" w.W.name tag
          in
          check_str
            (Printf.sprintf "%s/%s store digest" w.W.name tag)
            expected
            (Spec_fdo.Store.digest (Spec_fdo.Store.of_profile prog prof)))
        (inputs w))
    W.all

let test_reuse_counts () =
  List.iter
    (fun (w : W.workload) ->
      let profile, _ = Profiler.profile (Lower.compile (W.train_source w)) in
      let r =
        Spec_driver.Pipeline.optimize ~edge_profile:(Some profile)
          (Lower.compile (W.train_source w))
          Spec_driver.Pipeline.Base
      in
      let lr, _ = Load_reuse.analyse r.Spec_driver.Pipeline.prog in
      let _, loads, reused =
        List.find (fun (k, _, _) -> k = w.W.name) reuse_counts
      in
      check_int (w.W.name ^ " loads") loads lr.Load_reuse.total_loads;
      check_int (w.W.name ^ " reuses") reused lr.Load_reuse.reused_loads)
    W.all

(* A direct reference never asks [Memory] what its address belongs to,
   and an indirect one asks only when its address leaves the global or
   heap object its site saw last (stack addresses always ask).  So the
   lookups stay a small share of the indirect reference executions: at
   most a quarter on every kernel input, and a twentieth over the ten
   train inputs. *)
let test_lookups_bounded () =
  let lookups = ref 0 and refs = ref 0 in
  List.iter
    (fun (w : W.workload) ->
      List.iter
        (fun (tag, params) ->
          let vp, lay = Vmcode.profile (Lower.compile (w.W.source params)) in
          let _, pr = Vm.profile vp lay in
          let n = Array.fold_left ( + ) 0 pr.Vm.ref_counts in
          if 4 * pr.Vm.lookups > n then
            Alcotest.failf "%s/%s: %d lookups for %d indirect references"
              w.W.name tag pr.Vm.lookups n;
          if tag = "train" then begin
            lookups := !lookups + pr.Vm.lookups;
            refs := !refs + n
          end)
        (inputs w))
    W.all;
  if 20 * !lookups > !refs then
    Alcotest.failf "train inputs: %d lookups for %d indirect references"
      !lookups !refs

(* every block that ends in a goto or a conditional is left exactly as
   often as it is entered (its in-edges, plus the function's entries for
   the entry block) *)
let flow_conserved (p : Sir.prog) (prof : Profile.t) =
  let ok = ref true in
  Sir.iter_funcs
    (fun f ->
      let func = f.Sir.fname in
      let n = Sir.n_blocks f in
      let inflow = Array.make n 0 and outflow = Array.make n 0 in
      inflow.(Sir.entry_bid) <- Profile.entry_count prof ~func;
      for src = 0 to n - 1 do
        List.iter
          (fun dst ->
            let c = Profile.edge_count prof ~func ~src ~dst in
            outflow.(src) <- outflow.(src) + c;
            inflow.(dst) <- inflow.(dst) + c)
          (Sir.succs (Sir.block f src))
      done;
      for b = 0 to n - 1 do
        match (Sir.block f b).Sir.term with
        | Sir.Tgoto _ | Sir.Tcond _ ->
          if inflow.(b) <> outflow.(b) then ok := false
        | Sir.Tret _ -> ()
      done)
    p;
  !ok

let site_counts_bounded (prof : Profile.t) =
  Hashtbl.fold
    (fun site locs ok ->
      ok
      && Profile.ref_count prof site
         >= Hashtbl.fold (fun _ n acc -> acc + n) locs 0)
    prof.Profile.alias.Profile.ref_locs true

let prop_profile_consistent =
  QCheck.Test.make ~count:60
    ~name:"vm profiles conserve flow and bound site LOC counts"
    (QCheck.make ~print:Fun.id Test_fuzz.gen_program)
    (fun src ->
      let p = Lower.compile src in
      let prof, _ = Profiler.profile p in
      flow_conserved p prof && site_counts_bounded prof)

(* [profile_digests.txt] pins the profiles of programs beyond the
   kernels: 100 programs from each fuzz generator at the seeds
   [test_digests.ml] uses, the SSAPRE probe at two sizes,
   [alat_frames.c], and [prof_paths.c], which takes the reference paths
   the kernels never take.  A row gives the store digest of the
   program's profile and the load-reuse counts of its unoptimized
   lowering, or the error a run raised.  On a mismatch the test writes
   the recomputed table to [profile_digests.actual] in the build's test
   directory. *)
let profile_programs () =
  let file name = (name, In_channel.with_open_bin name In_channel.input_all) in
  List.concat_map
    (fun (gname, gen) ->
      List.init 100 (fun i ->
          ( Printf.sprintf "fuzz/%s/%d" gname (i + 1),
            QCheck.Gen.generate1 ~rand:(Random.State.make [| i + 1 |]) gen )))
    [ ("program", Test_fuzz.gen_program);
      ("control", Test_fuzz.gen_control);
      ("recursive", Test_fuzz.gen_recursive) ]
  @ List.map
      (fun n -> (Printf.sprintf "probe/%d" n, Ssapre_probe.source n))
      [ 12; 24 ]
  @ [ file "alat_frames.c"; file "prof_paths.c" ]

let profile_row (label, src) =
  let guard f =
    try f ()
    with e ->
      "raised "
      ^ String.map (fun c -> if c = '\n' then ' ' else c) (Printexc.to_string e)
  in
  let digest =
    guard (fun () ->
        let prog = Lower.compile src in
        let prof, _ = Profiler.profile prog in
        Spec_fdo.Store.digest (Spec_fdo.Store.of_profile prog prof))
  in
  let reuse =
    guard (fun () ->
        let lr, _ = Load_reuse.analyse (Lower.compile src) in
        Printf.sprintf "%d %d" lr.Load_reuse.total_loads
          lr.Load_reuse.reused_loads)
  in
  String.concat " " [ label; digest; reuse ]

let test_profile_digests () =
  let actual = List.map profile_row (profile_programs ()) in
  let golden =
    In_channel.with_open_bin "profile_digests.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  if actual <> golden then begin
    Out_channel.with_open_bin "profile_digests.actual" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let moved = List.filter (fun l -> not (List.mem l golden)) actual in
    let label l = List.hd (String.split_on_char ' ' l) in
    Alcotest.failf
      "%d of %d profile rows moved (%d golden rows), e.g. %s; the \
       recomputed table is in profile_digests.actual"
      (List.length moved) (List.length actual) (List.length golden)
      (String.concat ", "
         (List.map label (List.filteri (fun i _ -> i < 20) moved)))
  end

let suite =
  [ Alcotest.test_case "store digests match hook-era profiles" `Quick
      test_store_digests;
    Alcotest.test_case "load-reuse counts match hook-era runs" `Quick
      test_reuse_counts;
    Alcotest.test_case "profile digests of generated programs" `Quick
      test_profile_digests;
    Alcotest.test_case "few reference events look up their address" `Quick
      test_lookups_bounded;
    QCheck_alcotest.to_alcotest prop_profile_consistent ]

(* Optimizer output pinning.

   [optimizer_digests.txt] holds one MD5 of the optimized program's Pp
   text per compile: the ten workload kernels at their train and ref
   inputs and as an 8-copy compile unit, under every variant, with and
   without an edge profile; the SSAPRE scaling probe at two sizes; 100
   programs from each fuzz generator at fixed seeds; and adversarial
   compiles of three kernels.  Any change to what the optimizer emits
   shows up here as a named row.

   On a mismatch the test writes the full recomputed table to
   [optimizer_digests.actual] in the build's test directory; copy it over
   [test/optimizer_digests.txt] only when the change is intended, and say
   why in CHANGES.md. *)

open Spec_ir
open Spec_driver
module W = Spec_workloads.Workloads

let digest (r : Pipeline.result) =
  Digest.to_hex (Digest.string (Pp.prog_to_string r.Pipeline.prog))

let variants prof =
  [ ("base", Pipeline.Base);
    ("heuristic", Pipeline.Spec_heuristic);
    ("profile", Pipeline.Spec_profile prof);
    ("aggressive", Pipeline.Aggressive);
    ("noopt", Pipeline.Noopt) ]

let kernel_rows () =
  List.concat_map
    (fun (w : W.workload) ->
      let inputs =
        [ ("train", W.train_source w);
          ("ref", W.ref_source w);
          ("unit8", Experiments.compile_unit ~copies:8 (W.train_source w)) ]
      in
      List.concat_map
        (fun (input, src) ->
          let prof = Pipeline.profile_of_source src in
          List.concat_map
            (fun (vname, v) ->
              List.map
                (fun (ename, edge) ->
                  let r =
                    Pipeline.compile_and_optimize ~edge_profile:edge src v
                  in
                  ( String.concat "/" [ "kernel"; w.W.name; input; vname; ename ],
                    digest r ))
                [ ("edge", Some prof); ("noedge", None) ])
            (variants prof))
        inputs)
    W.all

let probe_rows () =
  List.concat_map
    (fun n ->
      let src = Ssapre_probe.source n in
      let prof = Pipeline.profile_of_source src in
      List.map
        (fun (vname, v) ->
          let r = Pipeline.compile_and_optimize ~edge_profile:None src v in
          (Printf.sprintf "probe/%d/%s" n vname, digest r))
        (variants prof))
    [ 12; 24 ]

let fuzz_rows () =
  List.concat_map
    (fun (gname, gen) ->
      List.concat_map
        (fun seed ->
          let src =
            QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |]) gen
          in
          let prof = Pipeline.profile_of_source src in
          List.map
            (fun (vname, v) ->
              let r =
                Pipeline.compile_and_optimize ~edge_profile:(Some prof) src v
              in
              (Printf.sprintf "fuzz/%s/%d/%s" gname seed vname, digest r))
            [ ("base", Pipeline.Base);
              ("heuristic", Pipeline.Spec_heuristic);
              ("profile", Pipeline.Spec_profile prof) ])
        (List.init 100 (fun i -> i + 1)))
    [ ("program", Test_fuzz.gen_program);
      ("control", Test_fuzz.gen_control);
      ("recursive", Test_fuzz.gen_recursive) ]

let adversary_rows () =
  List.concat_map
    (fun name ->
      let w = W.find name in
      let src = W.train_source w in
      let prof = Pipeline.profile_of_source src in
      List.concat_map
        (fun (aname, adv) ->
          List.map
            (fun (vname, v) ->
              let perturb =
                Spec_spec.Flags.perturbation ~seed:1 ~scope:[ name; vname ] adv
              in
              let r =
                Pipeline.compile_and_optimize ~edge_profile:(Some prof)
                  ?perturb src v
              in
              (String.concat "/" [ "adv"; name; aname; vname ], digest r))
            [ ("heuristic", Pipeline.Spec_heuristic);
              ("profile", Pipeline.Spec_profile prof) ])
        [ ("invert", Spec_stress.Faults.Adv_invert);
          ("drop", Spec_stress.Faults.Adv_drop 250_000) ])
    [ "equake"; "ammp"; "mcf" ]

let rows () = kernel_rows () @ probe_rows () @ fuzz_rows () @ adversary_rows ()

let read_golden path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> (
        match String.split_on_char ' ' line with
        | [ label; d ] -> go ((label, d) :: acc)
        | _ -> go acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_digests () =
  let actual = rows () in
  let golden = read_golden "optimizer_digests.txt" in
  if actual <> golden then begin
    let oc = open_out "optimizer_digests.actual" in
    List.iter (fun (l, d) -> Printf.fprintf oc "%s %s\n" l d) actual;
    close_out oc;
    let moved =
      List.filter
        (fun (l, d) -> List.assoc_opt l golden <> Some d)
        actual
    in
    let shown = List.filteri (fun i _ -> i < 20) moved in
    Alcotest.failf
      "%d of %d optimizer digests moved (%d golden rows), e.g. %s; the \
       recomputed table is in optimizer_digests.actual"
      (List.length moved) (List.length actual) (List.length golden)
      (String.concat ", " (List.map fst shown))
  end

let suite =
  [ Alcotest.test_case "optimizer output digests" `Quick test_digests ]

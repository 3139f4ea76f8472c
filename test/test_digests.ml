(* Optimizer output and text-format pinning.

   [optimizer_digests.txt] holds one MD5 of the optimized program's Pp
   text per compile: the ten workload kernels at their train and ref
   inputs and as an 8-copy compile unit, under every variant, with and
   without an edge profile; the SSAPRE scaling probe at two sizes; 100
   programs from each fuzz generator at fixed seeds; and adversarial
   compiles of three kernels.  Any change to what the optimizer emits
   shows up here as a named row.

   [text_digests.txt] pins the bytes of the on-disk text formats and the
   messages of their readers, which the Pp text does not see: the MD5 of
   [Sir_io.write] for every kernel and fuzz compile above, the MD5 of
   [Store.write] and of the sorted [Sitekey.index] keys and body digests
   for every kernel and fuzz source, and the exact reader message for
   every cut of one kernel artifact and one store.

   [schedule_digests.txt] pins the back end on the same kernel and fuzz
   compiles: per compile, the MD5 of the lowered and list-scheduled ITL
   text ([Itl.pp_mfunc] in [mp_order]) and the scheduler's block and
   move counts.

   On a mismatch a test writes its full recomputed table to
   [optimizer_digests.actual], [text_digests.actual] or
   [schedule_digests.actual] in the build's test directory; copy it over
   the golden only when the change is intended, and say why in
   CHANGES.md. *)

open Spec_ir
open Spec_driver
module W = Spec_workloads.Workloads
module Store = Spec_fdo.Store
module Sitekey = Spec_fdo.Sitekey

let md5 s = Digest.to_hex (Digest.string s)

let digest (r : Pipeline.result) = md5 (Pp.prog_to_string r.Pipeline.prog)

(* The scheduled ITL of a compile and the scheduler's counts. *)
let schedule_row label (r : Pipeline.result) =
  let open Spec_codegen in
  let mp = Codegen.lower r.Pipeline.prog in
  let st = Schedule.run mp in
  let text =
    String.concat ""
      (List.map
         (fun f -> Fmt.str "%a@." Itl.pp_mfunc (Hashtbl.find mp.Itl.mp_funcs f))
         mp.Itl.mp_order)
  in
  Printf.sprintf "%s %s blocks=%d moved=%d" label (md5 text)
    st.Schedule.blocks st.Schedule.moved

(* A compile's rows: its Pp digest, the digest of its [specsir/2] text
   and its schedule row. *)
let compile_rows label (r : Pipeline.result) =
  ( (label, digest r),
    Printf.sprintf "sir/%s %s" label (md5 (Spec_fdo.Sir_io.write r.Pipeline.prog)),
    schedule_row label r )

(* The site keys of a fresh lowering, sorted, each with its site id, then
   every function's body digest. *)
let index_digest (prog : Sir.prog) =
  let ix = Sitekey.index prog in
  let keys =
    Hashtbl.fold
      (fun site _ acc ->
        match Sitekey.key_of_site ix site with
        | Some k -> Printf.sprintf "%s @%d" (Sitekey.to_string k) site :: acc
        | None -> acc)
      prog.Sir.sites []
  in
  let bodies =
    List.map
      (fun f ->
        f ^ " " ^ Option.value ~default:"-" (Sitekey.digest_of_func ix f))
      prog.Sir.func_order
  in
  md5 (String.concat "\n" (List.sort compare keys @ bodies))

(* A profiled source's text rows: its store's bytes and its site keys. *)
let source_rows label prog prof =
  [ Printf.sprintf "store/%s %s" label
      (md5 (Store.write (Store.of_profile prog prof)));
    Printf.sprintf "keys/%s %s" label (index_digest prog) ]

let variants prof =
  [ ("base", Pipeline.Base);
    ("heuristic", Pipeline.Spec_heuristic);
    ("profile", Pipeline.Spec_profile prof);
    ("aggressive", Pipeline.Aggressive);
    ("noopt", Pipeline.Noopt) ]

(* Each kernel and fuzz source gives a list of compile rows and its
   source rows. *)
let kernel_rows () =
  List.concat_map
    (fun (w : W.workload) ->
      let inputs =
        [ ("train", W.train_source w);
          ("ref", W.ref_source w);
          ("unit8", Experiments.compile_unit ~copies:8 (W.train_source w)) ]
      in
      List.map
        (fun (input, src) ->
          let prog0, prof, _ = Pipeline.train src in
          ( List.concat_map
              (fun (vname, v) ->
                List.map
                  (fun (ename, edge) ->
                    let r =
                      Pipeline.compile_and_optimize ~edge_profile:edge src v
                    in
                    compile_rows
                      (String.concat "/"
                         [ "kernel"; w.W.name; input; vname; ename ])
                      r)
                  [ ("edge", Some prof); ("noedge", None) ])
              (variants prof),
            source_rows (String.concat "/" [ "kernel"; w.W.name; input ])
              prog0 prof ))
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
      List.map
        (fun seed ->
          let src =
            QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |]) gen
          in
          let prog0, prof, _ = Pipeline.train src in
          ( List.map
              (fun (vname, v) ->
                let r =
                  Pipeline.compile_and_optimize ~edge_profile:(Some prof) src v
                in
                compile_rows (Printf.sprintf "fuzz/%s/%d/%s" gname seed vname) r)
              [ ("base", Pipeline.Base);
                ("heuristic", Pipeline.Spec_heuristic);
                ("profile", Pipeline.Spec_profile prof) ],
            source_rows (Printf.sprintf "fuzz/%s/%d" gname seed) prog0 prof ))
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

(* The three tables from one pass over the compiles: the optimizer rows
   in golden order, the text rows of the kernel and fuzz sources, and
   their schedule rows. *)
let tables =
  lazy
    (let split groups =
       let compiles = List.concat_map fst groups in
       ( List.map (fun (o, _, _) -> o) compiles,
         List.map (fun (_, t, _) -> t) compiles @ List.concat_map snd groups,
         List.map (fun (_, _, s) -> s) compiles )
     in
     let kernel, kernel_text, kernel_sched = split (kernel_rows ()) in
     let probe = probe_rows () in
     let fuzz, fuzz_text, fuzz_sched = split (fuzz_rows ()) in
     ( kernel @ probe @ fuzz @ adversary_rows (),
       kernel_text @ fuzz_text,
       kernel_sched @ fuzz_sched ))

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
  let actual, _, _ = Lazy.force tables in
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

(* The reader's message, or "ok", for every prefix of [text] that ends
   at the start of a token or in the middle of one. *)
let cut_rows name read text =
  let n = String.length text in
  let row at =
    let msg = match read (String.sub text 0 at) with Ok _ -> "ok" | Error m -> m in
    Printf.sprintf "cut/%s/%d %s" name at msg
  in
  let rec tokens i acc =
    if i >= n then List.rev (row n :: acc)
    else
      match text.[i] with
      | ' ' | '\t' | '\r' | '\n' -> tokens (i + 1) acc
      | c ->
        let j = ref (i + 1) in
        if c = '"' then begin
          while !j < n && text.[!j] <> '"' do
            if text.[!j] = '\\' then incr j;
            incr j
          done;
          incr j
        end
        else
          while
            !j < n
            && not (List.mem text.[!j] [ ' '; '\t'; '\r'; '\n' ])
          do
            incr j
          done;
        let mid = if !j - i >= 2 then [ row ((i + !j) / 2) ] else [] in
        tokens !j (mid @ (row i :: acc))
  in
  tokens 0 []

(* The cipher kernel compiled with deoptimization descriptors, so that
   its artifact carries every statement record, and its train store. *)
let cut_tables () =
  let src = W.train_source (W.find "cipher") in
  let r =
    Pipeline.compile_and_optimize ~deopt:true src Pipeline.Spec_heuristic
  in
  let prog0, prof, _ = Pipeline.train src in
  cut_rows "artifact" Pipeline.read_artifact (Pipeline.write_artifact r)
  @ cut_rows "store" Store.read (Store.write (Store.of_profile prog0 prof))

(* Compare [actual] with the golden [name].txt line for line; on a
   mismatch write [name].actual and name the moved rows. *)
let check_lines name what actual =
  let golden =
    In_channel.with_open_bin (name ^ ".txt") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  if actual <> golden then begin
    Out_channel.with_open_bin (name ^ ".actual") (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let moved = List.filter (fun l -> not (List.mem l golden)) actual in
    let label l = List.hd (String.split_on_char ' ' l) in
    Alcotest.failf
      "%d of %d %s rows moved (%d golden rows), e.g. %s; the recomputed \
       table is in %s.actual"
      (List.length moved) (List.length actual) what (List.length golden)
      (String.concat ", "
         (List.map label (List.filteri (fun i _ -> i < 20) moved)))
      name
  end

let test_text_digests () =
  let _, text, _ = Lazy.force tables in
  check_lines "text_digests" "text" (text @ cut_tables ())

let test_schedule_digests () =
  let _, _, sched = Lazy.force tables in
  check_lines "schedule_digests" "schedule" sched

let suite =
  [ Alcotest.test_case "optimizer output digests" `Quick test_digests;
    Alcotest.test_case "text-format digests and reader messages" `Quick
      test_text_digests;
    Alcotest.test_case "schedule digests" `Quick test_schedule_digests ]

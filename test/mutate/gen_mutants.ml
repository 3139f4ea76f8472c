(* gen_mutants.exe DIR N SEED: write N distinct mutants of the seed-1
   mutant corpus, drawn by a stream of SEED, to DIR/<kernel>-<k>.c. *)

let () =
  match Sys.argv with
  | [| _; dir; n; seed |] ->
    let corpus = Array.of_list (Spec_mutate.Mutate.corpus ~seed:1) in
    let rng = Spec_stress.Srng.of_path (int_of_string seed) [ "sample" ] in
    let picked = Hashtbl.create 64 in
    while Hashtbl.length picked < min (int_of_string n) (Array.length corpus) do
      Hashtbl.replace picked
        (Spec_stress.Srng.below rng (Array.length corpus)) ()
    done;
    Hashtbl.iter
      (fun i () ->
        let label, src = corpus.(i) in
        let file =
          Filename.concat dir
            (String.map (fun c -> if c = '/' then '-' else c) label ^ ".c")
        in
        Out_channel.with_open_bin file (fun oc -> output_string oc src))
      picked
  | _ ->
    prerr_endline "usage: gen_mutants.exe DIR N SEED";
    exit 2

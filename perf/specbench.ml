(* specbench: the repository benchmark.  Runs one workload in this
   process and prints its metrics; the last line of stdout is one JSON
   object {correct, attempted, failed, metrics}.  See README.md. *)

open Specbench_lib

let usage =
  "specbench --workload build|execute|train|serve [--seed N] [--seconds S] \
   [--trace 0|1] [--speccc PATH]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.
  and trace = ref 0 and speccc = ref "" in
  Arg.parse
    [ "--workload", Arg.Set_string workload, "W  build, execute, train or serve";
      "--seed", Arg.Set_int seed, "N  input seed (default 1; 7 is held out)";
      "--seconds", Arg.Set_float seconds,
      "S  nominal measured seconds (default 20)";
      "--trace", Arg.Set_int trace,
      "0|1  1 traces the last pass and prints the per-layer metrics";
      "--speccc", Arg.Set_string speccc,
      "PATH  speccc binary for serve (default: the sibling bin/speccc.exe)" ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let speccc =
    if !speccc <> "" then !speccc
    else
      Filename.concat
        (Filename.dirname (Filename.dirname Sys.executable_name))
        (Filename.concat "bin" "speccc.exe")
  in
  match
    Runner.main ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~trace:(!trace = 1) ~speccc
  with
  | Ok line -> print_endline line
  | Error msg ->
    prerr_endline ("specbench: " ^ msg);
    exit 2

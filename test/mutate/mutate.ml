(* Token-level mutants of mini-C sources.  See mutate.mli. *)

module Srng = Spec_stress.Srng
module W = Spec_workloads.Workloads

let is_word c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.'

(* (start, stop) byte spans of the tokens of [src] *)
let spans src =
  let n = String.length src in
  let acc = ref [] in
  let i = ref 0 in
  while !i < n do
    match src.[!i] with
    | ' ' | '\t' | '\r' | '\n' -> incr i
    | c when is_word c ->
      let start = !i in
      while !i < n && is_word src.[!i] do incr i done;
      acc := (start, !i) :: !acc
    | _ ->
      acc := (!i, !i + 1) :: !acc;
      incr i
  done;
  Array.of_list (List.rev !acc)

(* [src] with bytes [a, b) replaced by [s] *)
let splice src a b s =
  String.concat ""
    [ String.sub src 0 a; s; String.sub src b (String.length src - b) ]

let mutant rng src =
  let toks = spans src in
  let nt = Array.length toks in
  let tok i = let a, b = toks.(i) in String.sub src a (b - a) in
  if nt < 2 then src
  else
    match Srng.below rng 5 with
    | 0 ->
      let a, b = toks.(Srng.below rng nt) in
      splice src a b ""
    | 1 ->
      let i = Srng.below rng nt in
      let _, b = toks.(i) in
      splice src b b (" " ^ tok i)
    | 2 ->
      let i = Srng.below rng (nt - 1) in
      let a, b = toks.(i) and a', b' = toks.(i + 1) in
      splice src a b' (tok (i + 1) ^ String.sub src b (a' - b) ^ tok i)
    | 3 ->
      let a, _ = toks.(Srng.below rng nt) in
      splice src a a (tok (Srng.below rng nt) ^ " ")
    | _ ->
      let at = Srng.below rng (String.length src + 1) in
      splice src at at (String.make 1 (Char.chr (Srng.below rng 256)))

let per_kernel = 200

let corpus ~seed =
  List.concat_map
    (fun (w : W.workload) ->
      let src = W.train_source w in
      List.init per_kernel (fun k ->
          let label = Printf.sprintf "%s/%d" w.W.name k in
          let rng = Srng.of_path seed [ "mutant"; w.W.name; string_of_int k ] in
          (label, mutant rng src)))
    W.all

(* Unit tests for the dense optimizer internals introduced with the
   parallel pipeline: the domain-local Scratch buffer pools, Build_ssa's
   variable interner, the formal-to-entry-version fast path shared with
   SSAPRE, and a fuzz differential pinning the dense SSAPRE to the
   sequential pipeline's observable behaviour. *)

open Spec_ir
open Spec_cfg
open Spec_driver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---- Scratch pools ---- *)

(* Returned buffers are recycled: a give followed by a take of no larger
   capacity hands the same array back, dirty. *)
let test_scratch_ints_reuse () =
  let a = Scratch.take_ints 100 in
  check_bool "capacity covers request" true (Array.length a >= 100);
  Array.fill a 0 100 31337;
  Scratch.give_ints a;
  let b = Scratch.take_ints 50 in
  check_bool "pooled buffer recycled" true (a == b);
  check_int "handed out dirty (callers must init)" 31337 b.(0);
  Scratch.give_ints b;
  (* a request beyond every pooled capacity allocates fresh *)
  let big = Scratch.take_ints (Array.length a + 1) in
  check_bool "oversized request is a fresh buffer" true (not (big == a));
  Scratch.give_ints big

(* Byte rows come back zeroed over the requested prefix — the bitset
   starting state — even when the recycled buffer was dirty. *)
let test_scratch_bytes_zeroed () =
  let b = Scratch.take_bytes 64 in
  Bytes.fill b 0 64 '\001';
  Scratch.give_bytes b;
  let c = Scratch.take_bytes 64 in
  check_bool "pooled buffer recycled" true (b == c);
  let all_zero = ref true in
  for i = 0 to 63 do
    if Bytes.get c i <> '\000' then all_zero := false
  done;
  check_bool "requested prefix zeroed" true !all_zero;
  Scratch.give_bytes c

(* The pool is bounded: giving back more buffers than [max_pooled] must
   not retain them all (the excess is dropped for the GC).  Observable
   as: after over-filling, at most max_pooled distinct arrays come back
   out before a fresh allocation appears. *)
let test_scratch_pool_bounded () =
  let given = List.init 12 (fun _ -> Scratch.take_ints 8) in
  (* the takes above may alias pooled buffers; force 12 distinct ones *)
  let distinct = List.map (fun _ -> Array.make 8 0) given in
  List.iter Scratch.give_ints distinct;
  let back = List.init 12 (fun _ -> Scratch.take_ints 8) in
  let recycled =
    List.length
      (List.filter (fun b -> List.exists (fun d -> d == b) distinct) back)
  in
  check_bool "at most max_pooled buffers retained" true (recycled <= 8);
  List.iter Scratch.give_ints back

(* ---- Build_ssa interner ---- *)

let two_func_src =
  "int g;\n\
   int add(int x, int y) {\n\
  \  int t; t = x + y + g;\n\
  \  return t;\n\
   }\n\
   int main() {\n\
  \  g = 7;\n\
  \  int i; int s; s = 0;\n\
  \  for (i = 0; i < 4; i++) s = s + add(i, i + 1);\n\
  \  print_int(s);\n\
  \  return 0;\n\
   }\n"

(* Interned ids are dense (0 .. n_loc-1), the two directions of the
   mapping agree, and every formal is recorded as defined at entry. *)
let test_interner_dense_ids () =
  let prog = Lower.compile two_func_src in
  let f = Hashtbl.find prog.Sir.funcs "add" in
  let it = Spec_ssa.Build_ssa.collect_vars prog f in
  check_bool "saw the formals and locals" true
    (it.Spec_ssa.Build_ssa.n_loc >= 3);
  for l = 0 to it.Spec_ssa.Build_ssa.n_loc - 1 do
    let v = it.Spec_ssa.Build_ssa.locals.(l) in
    check_int
      (Printf.sprintf "local_of inverts locals at %d" l)
      l
      it.Spec_ssa.Build_ssa.local_of.(v)
  done;
  List.iter
    (fun formal ->
      let l = it.Spec_ssa.Build_ssa.local_of.(formal) in
      check_bool "formal interned" true (l >= 0);
      check_bool "formal defined at entry" true
        (List.mem Sir.entry_bid it.Spec_ssa.Build_ssa.def_blocks.(l)))
    f.Sir.fformals;
  (* interning the same variable twice is stable *)
  let v0 = it.Spec_ssa.Build_ssa.locals.(0) in
  check_int "re-intern is stable" 0 (Spec_ssa.Build_ssa.intern it v0);
  Spec_ssa.Build_ssa.release it

(* build_func's formal map points each original formal at its version-1
   variable. *)
let test_formals_v1 () =
  let prog = Lower.compile two_func_src in
  Sir.iter_funcs
    (fun f -> ignore (Cfg_utils.split_critical_edges f : int))
    prog;
  let f = Hashtbl.find prog.Sir.funcs "add" in
  let bt = Spec_ssa.Build_ssa.build_func prog f in
  check_int "one entry per formal" (List.length f.Sir.fformals)
    (List.length bt.Spec_ssa.Build_ssa.formals_v1);
  List.iter
    (fun (orig, v1) ->
      check_bool "mapped from a formal" true (List.mem orig f.Sir.fformals);
      let v = Symtab.var prog.Sir.syms v1 in
      check_int "entry version has vver = 1" 1 v.Symtab.vver;
      check_int "entry version descends from the formal" orig
        v.Symtab.vorig)
    bt.Spec_ssa.Build_ssa.formals_v1

(* ---- SSAPRE end-version rows: formals fast path vs symtab scan ---- *)

(* Ssapre.run_func's [?formals] fast path (fed by Build_ssa) and its
   symtab-scan fallback must agree exactly: same program text, same
   stats.  This is the differential for the dense end-version table's
   two entry-version discovery paths. *)
let prep src =
  let prog = Lower.compile src in
  let annot = Spec_alias.Annotate.run prog in
  Spec_spec.Flags.assign prog annot Spec_spec.Flags.Heuristic_spec;
  Sir.iter_funcs
    (fun f -> ignore (Cfg_utils.split_critical_edges f : int))
    prog;
  (prog, annot)

let test_ssapre_formals_differential () =
  let config =
    Spec_ssapre.Ssapre.default_config Spec_spec.Flags.Heuristic_spec
  in
  let run ~use_formals =
    let prog, annot = prep two_func_src in
    let stats = ref Spec_ssapre.Ssapre.zero_stats in
    Sir.iter_funcs
      (fun f ->
        let bt = Spec_ssa.Build_ssa.build_func prog f in
        let formals =
          if use_formals then Some bt.Spec_ssa.Build_ssa.formals_v1
          else None
        in
        let st = Spec_ssapre.Ssapre.run_func ?formals prog annot config f in
        stats := Spec_ssapre.Ssapre.add_stats !stats st)
      prog;
    (Pp.prog_to_string prog, !stats)
  in
  let text_fast, stats_fast = run ~use_formals:true in
  let text_scan, stats_scan = run ~use_formals:false in
  check_str "identical program text" text_scan text_fast;
  check_bool "identical stats" true (stats_scan = stats_fast)

(* ---- Fuzz differential: dense SSAPRE vs observable behaviour ---- *)

(* Random multi-function programs (formals, globals, aliasing stores)
   through the full pipeline: every variant must preserve the
   unoptimized output, and compiling twice must produce byte-identical
   programs (the dense structures introduce no iteration-order
   dependence). *)
let random_two_func_prog : string QCheck.Gen.t =
  QCheck.Gen.(
    let* n_iters = int_range 3 10 in
    let* alias_pct = int_range 0 100 in
    let* use_helper = bool in
    let helper_call =
      if use_helper then "s = s + bump(a[i % 4], i);" else "s = s + a[i % 4];"
    in
    return
      (Printf.sprintf
         "int a[4]; int b[4];\n\
          int bump(int x, int k) { int t; t = x + k; return t; }\n\
          int main(){ int* q; int s; s = 0; q = &b[0];\n\
          for (int i = 0; i < %d; i++) {\n\
          if (rnd(100) < %d) q = &a[i %% 4]; else q = &b[i %% 4];\n\
          *q = i; %s s = s + a[0]; }\n\
          print_int(s); print_int(a[0]+a[1]+a[2]+a[3]);\n\
          print_int(b[0]+b[1]+b[2]+b[3]); return 0; }"
         n_iters alias_pct helper_call))

let run_prog prog = Spec_prof.Vm.run prog

let prop_dense_differential =
  QCheck.Test.make ~count:40
    ~name:"dense pipeline preserves behaviour and is deterministic"
    (QCheck.make ~print:Fun.id random_two_func_prog)
    (fun src ->
      let baseline = run_prog (Lower.compile src) in
      List.for_all
        (fun variant ->
          let r1 = Pipeline.compile_and_optimize src variant in
          let r2 = Pipeline.compile_and_optimize src variant in
          let out = run_prog r1.Pipeline.prog in
          out.Spec_prof.Interp.output = baseline.Spec_prof.Interp.output
          && Pp.prog_to_string r1.Pipeline.prog
             = Pp.prog_to_string r2.Pipeline.prog)
        [ Pipeline.Base; Pipeline.Spec_heuristic ])

let suite =
  [ Alcotest.test_case "scratch ints recycle dirty" `Quick
      test_scratch_ints_reuse;
    Alcotest.test_case "scratch bytes recycle zeroed" `Quick
      test_scratch_bytes_zeroed;
    Alcotest.test_case "scratch pool bounded" `Quick
      test_scratch_pool_bounded;
    Alcotest.test_case "interner dense ids" `Quick test_interner_dense_ids;
    Alcotest.test_case "build_func formals_v1" `Quick test_formals_v1;
    Alcotest.test_case "ssapre formals fast path == symtab scan" `Quick
      test_ssapre_formals_differential;
    QCheck_alcotest.to_alcotest prop_dense_differential ]

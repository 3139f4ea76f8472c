(* Golden tests for the paper's worked examples: the speculative SSA form
   of Example 1 and the occurrence relationships of Figure 5. *)

open Spec_ir
open Spec_cfg
open Spec_driver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Example 1 (§3.1): a and b are potential aliases of *p; the profile
   observes p -> b only.  The chi/mu on b must carry the speculation flag
   (highly likely), the chi/mu on a must not (speculative weak update). *)
let example1_src =
  "int a; int b; \
   int main(){ int* p; \
   a = 1; b = 2; \
   if (rnd(10) == 99) p = &a; else p = &b; \
   *p = 4; \
   int x; x = a; \
   a = 4; \
   int y; y = *p; \
   print_int(x + y); return 0; }"

let build_spec_ssa src mode =
  let p = Lower.compile src in
  let annot = Spec_alias.Annotate.run p in
  Spec_spec.Flags.assign p annot mode;
  Sir.iter_funcs
    (fun f -> ignore (Cfg_utils.split_critical_edges f : int))
    p;
  ignore (Spec_ssa.Build_ssa.build p);
  p

let find_var p name =
  let found = ref (-1) in
  Symtab.iter
    (fun v ->
      if v.Symtab.vname = name && v.Symtab.vorig = v.Symtab.vid then
        found := v.Symtab.vid)
    p.Sir.syms;
  !found

let orig p v = (Symtab.orig p.Sir.syms v).Symtab.vid

let test_example1_flags () =
  let prof = Pipeline.profile_of_source example1_src in
  let p = build_spec_ssa example1_src (Spec_spec.Flags.Profile_spec prof) in
  let va = find_var p "a" and vb = find_var p "b" in
  let f = Sir.find_func p "main" in
  (* the istore *p = 4 *)
  let istore = ref None and iload_mus = ref [] in
  Vec.iter
    (fun (b : Sir.bb) ->
      List.iter
        (fun (s : Sir.stmt) ->
          (match s.Sir.kind with
           | Sir.Istr _ -> istore := Some s
           | _ -> ());
          let has_iload = ref false in
          List.iter
            (Sir.iter_subexprs (function
              | Sir.Ilod _ -> has_iload := true
              | _ -> ()))
            (Sir.stmt_exprs s.Sir.kind);
          if (!has_iload || s.Sir.kind = Sir.Snop) && s.Sir.mus <> [] then
            iload_mus := !iload_mus @ s.Sir.mus)
        b.Sir.stmts)
    f.Sir.fblocks;
  let istore = Option.get !istore in
  let chi_flag target =
    match
      List.find_opt
        (fun (c : Sir.chi) -> orig p c.Sir.chi_var = target)
        istore.Sir.chis
    with
    | Some c -> Some c.Sir.chi_spec
    | None -> None
  in
  (* paper: s3 b2 <- chi_s(b1) ; s2 a2 <- chi(a1) *)
  check_bool "chi on b is flagged (chi_s)" true (chi_flag vb = Some true);
  check_bool "chi on a is a speculative weak update" true
    (chi_flag va = Some false);
  (* paper: s7 mu_s(b2), mu(a3) on the load of *p *)
  let mu_flag target =
    match
      List.find_opt
        (fun (m : Sir.mu) -> orig p m.Sir.mu_var = target)
        !iload_mus
    with
    | Some m -> Some m.Sir.mu_spec
    | None -> None
  in
  check_bool "mu on b is flagged (mu_s)" true (mu_flag vb = Some true);
  check_bool "mu on a is unflagged" true (mu_flag va = Some false)

let test_example1_nonspec_flags_everything () =
  let p = build_spec_ssa example1_src Spec_spec.Flags.Nonspec in
  let f = Sir.find_func p "main" in
  Vec.iter
    (fun (b : Sir.bb) ->
      List.iter
        (fun (s : Sir.stmt) ->
          List.iter
            (fun (c : Sir.chi) ->
              check_bool "nonspec flags every chi" true c.Sir.chi_spec)
            s.Sir.chis)
        b.Sir.stmts)
    f.Sir.fblocks

(* Figure 5: the three occurrence relationships for two loads of a.
   (a) no intervening store: plainly redundant (reload, no check);
   (b) may-modify store under the nonspeculative analysis: not redundant;
   (c) the same store under speculation: speculatively redundant
       (reload + check). *)
let fig5_count src variant =
  let prof = Pipeline.profile_of_source src in
  let r =
    Pipeline.compile_and_optimize ~edge_profile:(Some prof) src variant
  in
  let marks = Hashtbl.create 4 in
  Sir.iter_funcs
    (fun f ->
      Vec.iter
        (fun (b : Sir.bb) ->
          List.iter
            (fun (s : Sir.stmt) ->
              Hashtbl.replace marks s.Sir.mark
                (1
                 + Option.value ~default:0 (Hashtbl.find_opt marks s.Sir.mark)))
            b.Sir.stmts)
        f.Sir.fblocks)
    r.Pipeline.prog;
  (fun m -> Option.value ~default:0 (Hashtbl.find_opt marks m))

let test_fig5a_redundant () =
  let src =
    "int g; int main(){ int x; x = g; int y; y = g; print_int(x + y); \
     return 0; }"
  in
  let count = fig5_count src Pipeline.Base in
  check_int "no check needed when plainly redundant" 0 (count Sir.Mchk);
  (* the second load is gone entirely *)
  let p = (Pipeline.compile_and_optimize src Pipeline.Base).Pipeline.prog in
  let loads =
    (Spec_prof.Vm.run p).Spec_prof.Interp.counters.Spec_prof.Interp.mem_loads
  in
  check_int "one load remains" 1 loads

let fig5bc_src =
  "int g; int h; \
   int main(){ int* p; p = &h; \
   if (rnd(10) == 99) p = &g; \
   int x; x = g; \
   *p = 5; \
   int y; y = g; \
   print_int(x + y); return 0; }"

let test_fig5b_not_redundant_nonspec () =
  let count = fig5_count fig5bc_src Pipeline.Base in
  check_int "nonspeculative: no speculation marks" 0
    (count Sir.Mchk + count Sir.Madv)

let test_fig5c_speculatively_redundant () =
  let count = fig5_count fig5bc_src Pipeline.Spec_heuristic in
  check_bool "speculative: check generated" true (count Sir.Mchk >= 1);
  check_bool "speculative: advanced load marked" true (count Sir.Madv >= 1)

let suite =
  [ Alcotest.test_case "example 1 flags (profile)" `Quick test_example1_flags;
    Alcotest.test_case "example 1 nonspec" `Quick test_example1_nonspec_flags_everything;
    Alcotest.test_case "fig5a redundant" `Quick test_fig5a_redundant;
    Alcotest.test_case "fig5b not redundant" `Quick test_fig5b_not_redundant_nonspec;
    Alcotest.test_case "fig5c speculatively redundant" `Quick test_fig5c_speculatively_redundant ]

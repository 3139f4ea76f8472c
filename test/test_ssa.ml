(* Tests for HSSA construction, verification, and out-of-SSA. *)

open Spec_ir
open Spec_cfg
open Spec_alias
open Spec_ssa

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* frontend -> chi/mu annotate -> split critical edges -> SSA *)
let build src =
  let p = Lower.compile src in
  let info = Annotate.run p in
  Sir.iter_funcs (fun f -> ignore (Cfg_utils.split_critical_edges f)) p;
  let ts = Build_ssa.build p in
  p, info, ts

let test_straightline_versions () =
  let p, _, _ = build "int main(){ int x; x = 1; x = 2; return x; }" in
  Ssa_check.check p;
  let f = Sir.find_func p "main" in
  let entry = Sir.block f 0 in
  (match entry.Sir.stmts with
   | [ { Sir.kind = Sir.Stid (v1, _); _ }; { Sir.kind = Sir.Stid (v2, _); _ } ] ->
     check_bool "two distinct versions" true (v1 <> v2);
     check_int "versions share original" (Symtab.orig p.Sir.syms v1).Symtab.vid
       (Symtab.orig p.Sir.syms v2).Symtab.vid;
     (match entry.Sir.term with
      | Sir.Tret (Some (Sir.Lod u)) -> check_int "return uses v2" v2 u
      | _ -> Alcotest.fail "expected Lod return")
   | _ -> Alcotest.fail "unexpected statements")

let test_phi_at_join () =
  let p, _, _ =
    build "int main(){ int x; if (1) x = 1; else x = 2; return x; }"
  in
  Ssa_check.check p;
  let f = Sir.find_func p "main" in
  let joins =
    Vec.fold
      (fun acc (b : Sir.bb) ->
        acc + List.length (List.filter (fun (ph : Sir.phi) ->
            Symtab.name p.Sir.syms
              (Symtab.orig p.Sir.syms ph.Sir.phi_var).Symtab.vid |> fun _ -> true)
            b.Sir.phis))
      0 f.Sir.fblocks
  in
  check_bool "at least one phi" true (joins >= 1)

let test_loop_phi () =
  let p, _, _ =
    build
      "int main(){ int s; int i; s = 0; i = 0; \
       while (i < 9) { s = s + i; i = i + 1; } return s; }"
  in
  Ssa_check.check p;
  let f = Sir.find_func p "main" in
  (* the loop head must carry phis for s and i *)
  let head_phis =
    Vec.fold
      (fun acc (b : Sir.bb) ->
        if List.length b.Sir.preds >= 2 then acc + List.length b.Sir.phis
        else acc)
      0 f.Sir.fblocks
  in
  check_bool "loop head has phis" true (head_phis >= 2)

let test_chi_renamed () =
  let p, _, _ =
    build
      "int g; int h; \
       int main(){ int* p; if (g) p = &g; else p = &h; \
       *p = 3; return g; }"
  in
  Ssa_check.check p;
  let f = Sir.find_func p "main" in
  let istore =
    let found = ref None in
    Vec.iter
      (fun (b : Sir.bb) ->
        List.iter
          (fun s -> match s.Sir.kind with
             | Sir.Istr _ -> found := Some s
             | _ -> ())
          b.Sir.stmts)
      f.Sir.fblocks;
    Option.get !found
  in
  List.iter
    (fun (c : Sir.chi) ->
      check_bool "chi lhs is a version" true
        ((Symtab.var p.Sir.syms c.Sir.chi_lhs).Symtab.vver > 0);
      check_bool "chi lhs/rhs differ" true (c.Sir.chi_lhs <> c.Sir.chi_rhs))
    istore.Sir.chis;
  check_bool "istore has chis" true (istore.Sir.chis <> [])

let test_mu_renamed_to_chi_version () =
  (* the load *p after the store *p must use the chi-defined version *)
  let p, _, _ =
    build
      "int g; int main(){ int* p; p = &g; *p = 3; return *p; }"
  in
  Ssa_check.check p;
  let f = Sir.find_func p "main" in
  let istore_chis = ref [] and load_mus = ref [] in
  Vec.iter
    (fun (b : Sir.bb) ->
      List.iter
        (fun s ->
          match s.Sir.kind with
          | Sir.Istr _ -> istore_chis := s.Sir.chis
          | Sir.Snop when s.Sir.mus <> [] -> load_mus := s.Sir.mus
          | _ -> ())
        b.Sir.stmts)
    f.Sir.fblocks;
  check_bool "store has chis" true (!istore_chis <> []);
  check_bool "load has mus" true (!load_mus <> []);
  (* every mu operand matching a chi'd variable uses that chi's lhs *)
  List.iter
    (fun (m : Sir.mu) ->
      match
        List.find_opt (fun (c : Sir.chi) -> c.Sir.chi_var = m.Sir.mu_var)
          !istore_chis
      with
      | Some c -> check_int "mu uses chi-defined version" c.Sir.chi_lhs m.Sir.mu_opnd
      | None -> ())
    !load_mus

let test_ssa_check_catches_violation () =
  let p, _, _ = build "int main(){ int x; x = 1; x = 2; return x; }" in
  let f = Sir.find_func p "main" in
  let entry = Sir.block f 0 in
  (* corrupt: make the return use a version defined later than... swap defs *)
  (match entry.Sir.stmts with
   | [ s1; s2 ] ->
     entry.Sir.stmts <- [ s2; s1 ];
     (match s2.Sir.kind, entry.Sir.term with
      | Sir.Stid (_, _), Sir.Tret (Some (Sir.Lod _)) ->
        (* the return now uses s2's def which is fine; instead corrupt by
           making s1 use s1's own target *)
        (match s1.Sir.kind with
         | Sir.Stid (v, _) -> s1.Sir.kind <- Sir.Stid (v, Sir.Lod v)
         | _ -> ())
      | _ -> ())
   | _ -> ());
  (try
     Ssa_check.check p;
     Alcotest.fail "expected SSA violation"
   with Failure _ -> ())

(* Round trip: optimizing pipeline with no optimization must preserve
   semantics exactly. *)
let roundtrip_src src =
  let baseline = Spec_prof.Vm.run (Lower.compile src) in
  let p, _, _ = build src in
  Ssa_check.check p;
  Out_of_ssa.run p;
  let after = Spec_prof.Vm.run p in
  check_str "output preserved" baseline.Spec_prof.Interp.output
    after.Spec_prof.Interp.output;
  check_bool "return preserved" true
    (baseline.Spec_prof.Interp.ret = after.Spec_prof.Interp.ret)

let test_roundtrip_simple () =
  roundtrip_src
    "int main(){ int s; s = 0; for (int i = 0; i < 10; i++) s += i; \
     print_int(s); return s; }"

let test_roundtrip_pointers () =
  roundtrip_src
    "int a[16]; int b[16]; \
     int main(){ int* p; int s; s = 0; \
     for (int i = 0; i < 16; i++) { a[i] = i; b[i] = 2 * i; } \
     for (int i = 0; i < 16; i++) { \
       if (i % 3 == 0) p = &a[i]; else p = &b[i]; \
       s += *p; } \
     print_int(s); return s; }"

let test_roundtrip_calls () =
  roundtrip_src
    "int g; \
     int twice(int x){ return 2 * x; } \
     void bump(){ g = g + 1; } \
     int main(){ int s; s = 0; \
     for (int i = 0; i < 5; i++) { s += twice(i); bump(); } \
     print_int(s); print_int(g); return 0; }"

let test_roundtrip_heap () =
  roundtrip_src
    "int main(){ int* p; int n; n = 32; p = (int*)malloc(256); \
     for (int i = 0; i < n; i++) p[i] = i * i; \
     int s; s = 0; for (int i = 0; i < n; i++) s += p[i]; \
     print_int(s); return 0; }"

let test_roundtrip_floats () =
  roundtrip_src
    "float acc; \
     int main(){ float x; x = 0.5; acc = 0.0; \
     for (int i = 0; i < 20; i++) { acc = acc + x; x = x * 1.5; } \
     print_flt(acc); return 0; }"

(* qcheck: random structured programs round-trip through SSA. *)
let random_prog_gen : string QCheck.Gen.t =
  QCheck.Gen.(
    let int_expr vars =
      oneof
        [ map string_of_int (int_range 0 9);
          (if vars = [] then return "3" else map Fun.id (oneofl vars)) ]
    in
    let* nv = int_range 1 3 in
    let vars = List.init nv (fun i -> Printf.sprintf "x%d" i) in
    let* stmts = list_size (int_range 1 8)
        (oneof
           [ (let* v = oneofl vars in
              let* a = int_expr vars in
              let* b = int_expr vars in
              let* op = oneofl [ "+"; "-"; "*" ] in
              return (Printf.sprintf "%s = %s %s %s;" v a op b));
             (let* v = oneofl vars in
              let* a = int_expr vars in
              let* c = int_expr vars in
              return
                (Printf.sprintf "if (%s > 2) { %s = %s; } else { %s = %s + 1; }"
                   c v a v a));
             (let* v = oneofl vars in
              let* a = int_expr vars in
              return
                (Printf.sprintf
                   "for (int k = 0; k < 3; k++) { %s = %s + k; }" v a)) ])
    in
    let decls =
      String.concat " " (List.map (fun v -> Printf.sprintf "int %s; %s = 1;" v v) vars)
    in
    let prints =
      String.concat " " (List.map (fun v -> Printf.sprintf "print_int(%s);" v) vars)
    in
    return
      (Printf.sprintf "int main(){ %s %s %s return 0; }" decls
         (String.concat " " stmts) prints))

let prop_random_roundtrip =
  QCheck.Test.make ~count:100 ~name:"random programs round-trip through SSA"
    (QCheck.make ~print:Fun.id random_prog_gen)
    (fun src ->
      let baseline = Spec_prof.Vm.run (Lower.compile src) in
      let p, _, _ = build src in
      Ssa_check.check p;
      Out_of_ssa.run p;
      let after = Spec_prof.Vm.run p in
      baseline.Spec_prof.Interp.output = after.Spec_prof.Interp.output)

let suite =
  [ Alcotest.test_case "straightline versions" `Quick test_straightline_versions;
    Alcotest.test_case "phi at join" `Quick test_phi_at_join;
    Alcotest.test_case "loop phi" `Quick test_loop_phi;
    Alcotest.test_case "chi renamed" `Quick test_chi_renamed;
    Alcotest.test_case "mu uses chi version" `Quick test_mu_renamed_to_chi_version;
    Alcotest.test_case "ssa check catches violation" `Quick test_ssa_check_catches_violation;
    Alcotest.test_case "roundtrip simple" `Quick test_roundtrip_simple;
    Alcotest.test_case "roundtrip pointers" `Quick test_roundtrip_pointers;
    Alcotest.test_case "roundtrip calls" `Quick test_roundtrip_calls;
    Alcotest.test_case "roundtrip heap" `Quick test_roundtrip_heap;
    Alcotest.test_case "roundtrip floats" `Quick test_roundtrip_floats;
    QCheck_alcotest.to_alcotest prop_random_roundtrip ]

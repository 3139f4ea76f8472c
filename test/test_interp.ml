(* Tests for the interpreter (the vm), memory model, and profilers. *)

open Spec_ir
open Spec_prof

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let run src =
  let p = Lower.compile src in
  Vm.run p

let ret_int src =
  match (run src).Interp.ret with
  | Interp.Vint i -> i
  | Interp.Vflt _ -> Alcotest.fail "expected int return"

let test_arith () =
  check_int "arith" 14 (ret_int "int main(){ return 2 + 3 * 4; }");
  check_int "division" 3 (ret_int "int main(){ return 10 / 3; }");
  check_int "remainder" 1 (ret_int "int main(){ return 10 % 3; }");
  check_int "precedence with parens" 20
    (ret_int "int main(){ return (2 + 3) * 4; }");
  check_int "unary minus" (-5) (ret_int "int main(){ return -5; }");
  check_int "comparison" 1 (ret_int "int main(){ return 3 < 4; }");
  check_int "logical and strict" 0 (ret_int "int main(){ return 1 && 0; }");
  check_int "logical or" 1 (ret_int "int main(){ return 0 || 2; }");
  check_int "not" 1 (ret_int "int main(){ return !0; }")

let test_float_arith () =
  let r = run "float main(){ float x; x = 1.5; return x * 4.0; }" in
  (match r.Interp.ret with
   | Interp.Vflt f -> Alcotest.(check (float 1e-9)) "float mul" 6.0 f
   | _ -> Alcotest.fail "expected float");
  check_int "float compare" 1
    (ret_int "int main(){ float x; x = 0.5; return x < 1.0; }");
  check_int "f2i conversion" 3
    (ret_int "int main(){ float x; x = 3.7; return (int)x; }")

let test_control_flow () =
  check_int "if true" 1 (ret_int "int main(){ if (2 > 1) return 1; return 0; }");
  check_int "if else" 7
    (ret_int "int main(){ int x; if (0) x = 3; else x = 7; return x; }");
  check_int "while sum" 45
    (ret_int
       "int main(){ int s; int i; s = 0; i = 0; \
        while (i < 10) { s = s + i; i = i + 1; } return s; }");
  check_int "for sum" 45
    (ret_int
       "int main(){ int s; s = 0; for (int i = 0; i < 10; i++) s += i; \
        return s; }");
  check_int "break" 10
    (ret_int
       "int main(){ int s; s = 0; for (int i = 0; i < 100; i++) { \
        if (i == 5) break; s = s + i; } return s; }");
  check_int "continue" 25
    (ret_int
       "int main(){ int s; s = 0; for (int i = 0; i < 10; i++) { \
        if (i % 2 == 0) continue; s = s + i; } return s; }");
  check_int "nested loops" 100
    (ret_int
       "int main(){ int s; s = 0; \
        for (int i = 0; i < 10; i++) for (int j = 0; j < 10; j++) s++; \
        return s; }")

let test_globals_and_memory () =
  check_int "global rw" 5
    (ret_int "int g; int main(){ g = 5; return g; }");
  check_int "global array" 55
    (ret_int
       "int a[10]; int main(){ int s; \
        for (int i = 0; i < 10; i++) a[i] = i + 1; \
        s = 0; for (int i = 0; i < 10; i++) s += a[i]; return s; }");
  check_int "local array" 6
    (ret_int
       "int main(){ int a[3]; a[0]=1; a[1]=2; a[2]=3; \
        return a[0]+a[1]+a[2]; }");
  check_int "pointer deref" 42
    (ret_int "int main(){ int x; int* p; p = &x; *p = 42; return x; }");
  check_int "pointer to array elem" 9
    (ret_int
       "int a[4]; int main(){ int* p; p = &a[2]; *p = 9; return a[2]; }");
  check_int "malloc" 21
    (ret_int
       "int main(){ int* p; p = (int*)malloc(24); \
        p[0]=1; p[1]=2; p[2]=18; return p[0]+p[1]+p[2]; }")

let test_pointer_aliasing_semantics () =
  (* two pointers to the same cell must observe each other's stores *)
  check_int "aliased store visible" 7
    (ret_int
       "int main(){ int x; int* p; int* q; p = &x; q = &x; \
        *p = 3; *q = 7; return *p; }")

let test_functions () =
  check_int "call" 12
    (ret_int "int f(int x){ return x * 3; } int main(){ return f(4); }");
  check_int "recursion (fib)" 55
    (ret_int
       "int fib(int n){ if (n < 2) return n; return fib(n-1) + fib(n-2); } \
        int main(){ return fib(10); }");
  check_int "pointer arg writes caller" 99
    (ret_int
       "void set(int* p, int v){ *p = v; } \
        int main(){ int x; set(&x, 99); return x; }");
  check_int "local array by pointer" 30
    (ret_int
       "int sum(int* a, int n){ int s; s = 0; \
          for (int i = 0; i < n; i++) s += a[i]; return s; } \
        int main(){ int b[3]; b[0]=4; b[1]=10; b[2]=16; return sum(b, 3); }")

let test_output () =
  let r =
    run "int main(){ print_int(3); print_flt(2.5); print_int(-1); return 0; }"
  in
  check_str "output" "3\n2.5\n-1\n" r.Interp.output

let test_rnd_deterministic () =
  let out1 = (run "int main(){ seed(42); print_int(rnd(100)); print_int(rnd(100)); return 0; }").Interp.output in
  let out2 = (run "int main(){ seed(42); print_int(rnd(100)); print_int(rnd(100)); return 0; }").Interp.output in
  check_str "deterministic rng" out1 out2;
  let out3 = (run "int main(){ seed(43); print_int(rnd(1000000)); print_int(rnd(1000000)); return 0; }").Interp.output in
  check_bool "different seeds differ" true (out1 <> out3)

let test_runtime_errors () =
  let expect_error src =
    try
      ignore (Vm.run ~fuel:100_000 (Lower.compile src));
      Alcotest.fail "expected a runtime error"
    with Interp.Runtime_error _ -> ()
  in
  expect_error "int main(){ return 1 / 0; }";
  expect_error "int main(){ int* p; p = (int*)0; return *p; }";
  expect_error "int main(){ while (1) {} return 0; }"  (* fuel *)

let test_fuel_limit () =
  let p = Lower.compile "int main(){ int s; for (int i = 0; i < 1000000; i++) s++; return s; }" in
  (try
     ignore (Vm.run ~fuel:1000 p);
     Alcotest.fail "expected fuel exhaustion"
   with Interp.Runtime_error _ -> ())

let test_counters () =
  let r =
    run
      "int a[8]; int main(){ int s; s = 0; \
       for (int i = 0; i < 8; i++) s += a[i]; return s; }"
  in
  (* 8 iloads from a[i]; s and i are register resident *)
  check_int "mem loads" 8 r.Interp.counters.Interp.mem_loads

(* ---- LOC resolution ---- *)

let test_loc_resolution () =
  (* the accesses run inside [st], so its call site's mod set holds
     every LOC stored to, direct or indirect, and its ref set the one
     LOC loaded (the frame variable [x], read directly); the indirect
     stores also land in their own sites' LOC tables *)
  let p =
    Lower.compile
      "int g; int h[4]; \
       void st(){ int x; int* p; p = &x; *p = 1; g = x + 1; h[1] = 3; \
       int* q; q = (int*)malloc(16); q[0] = 4; } \
       int main(){ st(); return 0; }"
  in
  let prof, _ = Profiler.profile p in
  let name = function
    | Loc.Lvar v -> Symtab.name p.Sir.syms v
    | Loc.Lheap _ -> "heap"
  in
  let names set = List.sort compare (List.map name (Loc.Set.elements set)) in
  let sites kind =
    Hashtbl.fold
      (fun s (si : Sir.site_info) acc ->
        if si.Sir.si_kind = kind then s :: acc else acc)
      p.Sir.sites []
    |> List.sort compare
  in
  let store_locs =
    List.concat_map (fun s -> names (Profile.locs_at prof s)) (sites Sir.Kistore)
  in
  Alcotest.(check (list string)) "indirect store LOCs, in site order"
    [ "x"; "h"; "heap" ] store_locs;
  (* two call sites: [st()], whose subtree stores, and the malloc that
     names the heap LOC *)
  match
    List.partition
      (fun s -> Loc.Set.is_empty (Profile.call_mod_locs prof s))
      (sites Sir.Kcall)
  with
  | [ malloc ], [ call ] ->
    Alcotest.(check (list string)) "call mod set" [ "g"; "h"; "heap"; "x" ]
      (names (Profile.call_mod_locs prof call));
    Alcotest.(check (list string)) "call ref set" [ "x" ]
      (names (Profile.call_ref_locs prof call));
    check_bool "heap LOC named by its allocation site" true
      (Loc.Set.mem (Loc.Lheap malloc) (Profile.call_mod_locs prof call))
  | _ -> Alcotest.fail "expected one storing call and one malloc"

(* ---- alias profile ---- *)

let test_alias_profile () =
  let p =
    Lower.compile
      "int a[4]; int b[4]; \
       int main(){ int* p; \
       for (int i = 0; i < 8; i++) { \
         if (i % 2 == 0) p = &a[0]; else p = &b[0]; \
         *p = i; } \
       return 0; }"
  in
  let prof, _ = Profiler.profile p in
  (* find the istore site *)
  let site =
    Hashtbl.fold
      (fun s (si : Sir.site_info) acc ->
        if si.Sir.si_kind = Sir.Kistore then s else acc)
      p.Sir.sites (-1)
  in
  check_bool "istore site found" true (site >= 0);
  let locs = Profile.locs_at prof site in
  check_int "store touches two LOCs" 2 (Loc.Set.cardinal locs);
  check_int "store executed 8 times" 8 (Profile.ref_count prof site)

let test_edge_profile () =
  let p =
    Lower.compile
      "int main(){ int s; s = 0; \
       for (int i = 0; i < 10; i++) { if (i < 3) s += 2; else s += 1; } \
       return s; }"
  in
  let prof, r = Profiler.profile p in
  check_int "result" 13
    (match r.Interp.ret with Interp.Vint i -> i | _ -> -1);
  (* loop head executed 11 times: block frequencies were annotated *)
  let f = Sir.find_func p "main" in
  let max_freq =
    Vec.fold (fun acc (b : Sir.bb) -> max acc b.Sir.freq) 0. f.Sir.fblocks
  in
  check_bool "some block runs 10+ times" true (max_freq >= 10.);
  check_int "main entered once" 1 (Profile.entry_count prof ~func:"main")

let test_call_modref_profile () =
  let p =
    Lower.compile
      "int g; int h; \
       void touch(){ g = g + 1; } \
       int main(){ h = 1; touch(); return g; }"
  in
  let prof, _ = Profiler.profile p in
  let call_site =
    Hashtbl.fold
      (fun s (si : Sir.site_info) acc ->
        if si.Sir.si_kind = Sir.Kcall then s else acc)
      p.Sir.sites (-1)
  in
  let mods = Profile.call_mod_locs prof call_site in
  let refs = Profile.call_ref_locs prof call_site in
  let has_g set =
    Loc.Set.exists
      (function Loc.Lvar v -> Symtab.name p.Sir.syms v = "g" | _ -> false)
      set
  in
  check_bool "call mods g" true (has_g mods);
  check_bool "call refs g" true (has_g refs);
  let has_h set =
    Loc.Set.exists
      (function Loc.Lvar v -> Symtab.name p.Sir.syms v = "h" | _ -> false)
      set
  in
  check_bool "call does not mod h" false (has_h mods)

(* ---- load reuse ---- *)

let test_load_reuse_detects_redundancy () =
  (* g loaded twice with no intervening store: second is a reuse *)
  let p =
    Lower.compile
      "int a[1]; int main(){ int s; s = 0; \
       for (int i = 0; i < 100; i++) { s += a[0]; s += a[0]; } return s; }"
  in
  let lr, _ = Load_reuse.analyse p in
  check_int "total loads" 200 lr.Load_reuse.total_loads;
  (* all but the very first load of a[0] see the same addr+value *)
  check_int "reused loads" 199 lr.Load_reuse.reused_loads

let test_load_reuse_store_changes_value () =
  (* value changes each iteration: consecutive loads differ *)
  let p =
    Lower.compile
      "int a[1]; int main(){ int s; s = 0; \
       for (int i = 0; i < 50; i++) { a[0] = i; s += a[0]; } return s; }"
  in
  let lr, _ = Load_reuse.analyse p in
  check_int "no spurious reuse" 0 lr.Load_reuse.reused_loads

(* ---- semantic ALAT: an entry lives as long as its frame ---- *)

let test_sem_alat_frame_exit () =
  let t = Sem_alat.create () in
  let main = Sem_alat.enter_frame t in
  Sem_alat.arm t ~serial:main ~tag:1 64;
  let callee = Sem_alat.enter_frame t in
  check_bool "serials are fresh" true (callee > main);
  Sem_alat.arm t ~serial:callee ~tag:1 64;
  Sem_alat.arm t ~serial:callee ~tag:2 72;
  let leaf = Sem_alat.enter_frame t in
  check_int "caller, callee and an idle leaf" 3 (Sem_alat.live t);
  Sem_alat.exit_frame t leaf;
  check_int "a frame that armed nothing drops nothing" 3 (Sem_alat.live t);
  Sem_alat.exit_frame t callee;
  check_int "the returned frame's entries are gone" 1 (Sem_alat.live t);
  check_bool "the caller's entry survives its callee's return" true
    (Sem_alat.check t ~serial:main ~tag:1 64);
  check_bool "a dead frame's tag never checks" false
    (Sem_alat.check t ~serial:callee ~tag:1 64);
  (* a caller whose callee armed, but which armed nothing itself *)
  let idle = Sem_alat.enter_frame t in
  let busy = Sem_alat.enter_frame t in
  Sem_alat.arm t ~serial:busy ~tag:3 80;
  Sem_alat.exit_frame t busy;
  Sem_alat.exit_frame t idle;
  check_int "only main's entry is left" 1 (Sem_alat.live t);
  Sem_alat.invalidate t 64;
  check_int "a store still invalidates live entries" 0 (Sem_alat.live t);
  Sem_alat.exit_frame t main;
  check_int "empty after main returns" 0 (Sem_alat.live t)

(* The table [Sem_alat] kept in a [Hashtbl] for every run before it
   went dense (and still keeps under an injector), as the model of the
   dense one. *)
module Hashed_alat = struct
  type t = {
    tbl : (int * int, int) Hashtbl.t;
    mutable serial : int;
    mutable hi : int;
  }

  let create () = { tbl = Hashtbl.create 32; serial = 0; hi = 0 }

  let enter_frame t =
    t.serial <- t.serial + 1;
    t.serial

  let exit_frame t serial =
    if t.hi >= serial then begin
      t.hi <- serial - 1;
      let dead =
        Hashtbl.fold
          (fun ((s, _) as k) _ acc -> if s = serial then k :: acc else acc)
          t.tbl []
      in
      List.iter (Hashtbl.remove t.tbl) dead
    end

  let arm t ~serial ~tag addr =
    if serial > t.hi then t.hi <- serial;
    Hashtbl.replace t.tbl (serial, tag) addr

  let check t ~serial ~tag addr =
    match Hashtbl.find_opt t.tbl (serial, tag) with
    | Some a -> a = addr
    | None -> false

  let invalidate t addr =
    let stale =
      Hashtbl.fold (fun k a acc -> if a = addr then k :: acc else acc) t.tbl []
    in
    List.iter (Hashtbl.remove t.tbl) stale

  let live t = Hashtbl.length t.tbl
end

type alat_op =
  | Enter
  | Exit
  | Arm of int * int                   (* tag, addr *)
  | Check of int * int
  | Store of int

(* Addresses come from a pool of six cells so that stores hit, and tags
   from a pool of four so that callers and callees share them.  Arms
   and checks go to the innermost frame, as the vm's do. *)
let gen_alat_ops =
  QCheck.Gen.(
    let addr = map (fun c -> 8 * c) (int_range 0 5) and tag = int_range 0 3 in
    list_size (int_range 1 120)
      (frequency
         [ 2, return Enter;
           2, return Exit;
           4, map2 (fun t a -> Arm (t, a)) tag addr;
           4, map2 (fun t a -> Check (t, a)) tag addr;
           3, map (fun a -> Store a) addr ]))

let print_alat_ops ops =
  String.concat "; "
    (List.map
       (function
         | Enter -> "enter"
         | Exit -> "exit"
         | Arm (t, a) -> Printf.sprintf "arm %d@%d" t a
         | Check (t, a) -> Printf.sprintf "check %d@%d" t a
         | Store a -> Printf.sprintf "store %d" a)
       ops)

let prop_sem_alat_model =
  QCheck.Test.make ~count:500 ~name:"dense semantic ALAT = hashed model"
    (QCheck.make ~print:print_alat_ops gen_alat_ops)
    (fun ops ->
      let t = Sem_alat.create () and m = Hashed_alat.create () in
      (* the live frames, innermost first, as serial pairs *)
      let frames = ref [] in
      let enter () =
        frames := (Sem_alat.enter_frame t, Hashed_alat.enter_frame m) :: !frames
      in
      enter ();
      List.for_all
        (fun op ->
          (match op, !frames with
           | Enter, _ -> enter (); true
           | Exit, (s, ms) :: rest ->
             Sem_alat.exit_frame t s;
             Hashed_alat.exit_frame m ms;
             frames := rest;
             true
           | Arm (tag, a), (s, ms) :: _ ->
             Sem_alat.arm t ~serial:s ~tag a;
             Hashed_alat.arm m ~serial:ms ~tag a;
             true
           | Check (tag, a), (s, ms) :: _ ->
             Sem_alat.check t ~serial:s ~tag a
             = Hashed_alat.check m ~serial:ms ~tag a
           | Store a, _ ->
             Sem_alat.invalidate t a;
             Hashed_alat.invalidate m a;
             true
           | (Exit | Arm _ | Check _), [] -> true)
          && Sem_alat.live t = Hashed_alat.live m)
        ops)

let suite =
  [ Alcotest.test_case "arith" `Quick test_arith;
    Alcotest.test_case "float arith" `Quick test_float_arith;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "globals and memory" `Quick test_globals_and_memory;
    Alcotest.test_case "alias semantics" `Quick test_pointer_aliasing_semantics;
    Alcotest.test_case "functions" `Quick test_functions;
    Alcotest.test_case "output" `Quick test_output;
    Alcotest.test_case "deterministic rng" `Quick test_rnd_deterministic;
    Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
    Alcotest.test_case "fuel limit" `Quick test_fuel_limit;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "loc resolution" `Quick test_loc_resolution;
    Alcotest.test_case "alias profile" `Quick test_alias_profile;
    Alcotest.test_case "edge profile" `Quick test_edge_profile;
    Alcotest.test_case "call mod/ref profile" `Quick test_call_modref_profile;
    Alcotest.test_case "load reuse redundancy" `Quick test_load_reuse_detects_redundancy;
    Alcotest.test_case "load reuse store kills" `Quick test_load_reuse_store_changes_value;
    Alcotest.test_case "semantic ALAT frame exit" `Quick test_sem_alat_frame_exit;
    QCheck_alcotest.to_alcotest prop_sem_alat_model ]

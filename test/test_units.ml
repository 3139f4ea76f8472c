(* Unit tests for the small substrate modules: Vec, Types, Memory, the
   ALAT, the cache model, and the PRE candidate classifier. *)

open Spec_ir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---- Vec ---- *)

let test_vec () =
  let v = Vec.create 0 in
  check_int "empty" 0 (Vec.length v);
  for i = 0 to 99 do Vec.push v (i * i) done;
  check_int "length" 100 (Vec.length v);
  check_int "get" 49 (Vec.get v 7);
  Vec.set v 7 1000;
  check_int "set" 1000 (Vec.get v 7);
  check_int "push_get returns index" 100 (Vec.push_get v 5);
  let sum = Vec.fold ( + ) 0 v in
  check_bool "fold sums" true (sum > 0);
  check_bool "exists" true (Vec.exists (fun x -> x = 1000) v);
  check_bool "not exists" false (Vec.exists (fun x -> x = -1) v);
  (try
     ignore (Vec.get v 200);
     Alcotest.fail "expected out-of-bounds"
   with Invalid_argument _ -> ());
  (try
     Vec.set v (-1) 0;
     Alcotest.fail "expected out-of-bounds"
   with Invalid_argument _ -> ());
  check_int "of_list/to_list" 3
    (List.length (Vec.to_list (Vec.of_list 0 [ 1; 2; 3 ])))

(* ---- Types ---- *)

let test_types () =
  check_int "cell size" 8 Types.cell_size;
  check_int "int size" 8 (Types.size_of Types.Tint);
  check_int "void size" 0 (Types.size_of Types.Tvoid);
  check_bool "fp" true (Types.is_fp Types.Tflt);
  check_bool "ptr" true (Types.is_ptr (Types.Tptr Types.Tint));
  check_bool "int/ptr compatible" true
    (Types.compatible Types.Tint (Types.Tptr Types.Tflt));
  check_bool "int/float incompatible" false
    (Types.compatible Types.Tint Types.Tflt);
  Alcotest.(check string) "pp nested ptr" "int**"
    (Types.to_string (Types.Tptr (Types.Tptr Types.Tint)));
  check_bool "deref" true (Types.deref (Types.Tptr Types.Tflt) = Types.Tflt);
  (try
     ignore (Types.deref Types.Tint);
     Alcotest.fail "expected invalid deref"
   with Invalid_argument _ -> ())

(* ---- Memory ---- *)

let mk_mem () =
  let p = Lower.compile "int g; int h[4]; int main(){ return 0; }" in
  Spec_prof.Memory.create p, p

let test_memory_basic () =
  let m, p = mk_mem () in
  let g = List.hd p.Sir.globals in
  let addr = Spec_prof.Memory.global_addr m g in
  Spec_prof.Memory.store_int m addr 42;
  check_int "store/load" 42 (Spec_prof.Memory.load_int m addr);
  Spec_prof.Memory.store_flt m (addr + 8) 2.5;
  Alcotest.(check (float 0.)) "float cell" 2.5
    (Spec_prof.Memory.load_flt m (addr + 8))

let test_memory_faults () =
  let m, _ = mk_mem () in
  List.iter
    (fun addr ->
      try
        ignore (Spec_prof.Memory.load_int m addr);
        Alcotest.failf "expected fault at %d" addr
      with Spec_prof.Memory.Fault _ -> ())
    [ 0; 4; 12; -8; 1 lsl 40 ];
  (* speculative loads never fault *)
  check_int "spec load of bad address" 0
    (Spec_prof.Memory.load_int_spec m 0);
  Alcotest.(check (float 0.)) "spec fp load of bad address" 0.
    (Spec_prof.Memory.load_flt_spec m 4)

let test_memory_stack_and_heap () =
  let m, _ = mk_mem () in
  let mark = Spec_prof.Memory.stack_mark m in
  let a1 = Spec_prof.Memory.push_frame_var m 100 16 in
  let a2 = Spec_prof.Memory.push_frame_var m 101 8 in
  check_bool "stack grows" true (a2 = a1 + 16);
  check_bool "stack locs resolve" true
    (Spec_prof.Memory.loc_of_addr m a1 = Some (Loc.Lvar 100));
  Spec_prof.Memory.pop_frame m mark;
  check_bool "popped slots lose their loc" true
    (Spec_prof.Memory.loc_of_addr m a1 = None);
  let h1 = Spec_prof.Memory.malloc m ~site:7 30 in
  let h2 = Spec_prof.Memory.malloc m ~site:9 8 in
  check_int "malloc rounds up to cells" (h1 + 32) h2;
  check_bool "heap loc by site" true
    (Spec_prof.Memory.loc_of_addr m (h1 + 8) = Some (Loc.Lheap 7));
  check_bool "second allocation site" true
    (Spec_prof.Memory.loc_of_addr m h2 = Some (Loc.Lheap 9));
  check_bool "past-the-heap unresolved" true
    (Spec_prof.Memory.loc_of_addr m (h2 + 64) = None);
  (* every object resolves from its first cell to its last, and the cell
     past its end belongs to the next object or to nothing; globals and
     heap allocations report their extent, stack cells an empty one *)
  let module M = Spec_prof.Memory in
  let m, p = mk_mem () in
  let f = M.found () in
  let extent addr =
    M.resolve m addr f;
    (f.M.owner, f.M.lo, f.M.hi)
  in
  let g, h = match p.Sir.globals with [ g; h ] -> (g, h) | _ -> assert false in
  let ga = M.global_addr m g and ha = M.global_addr m h in
  check_bool "global extent" true (extent ga = (g, ga, ga + 8));
  check_bool "array first cell" true (extent ha = (h, ha, ha + 32));
  check_bool "array last cell" true (extent (ha + 24) = (h, ha, ha + 32));
  check_bool "past the last global" true (M.loc_of_addr m (ha + 32) = None);
  let a = M.push_frame_var m 100 16 in
  check_bool "stack extent is empty" true (extent (a + 8) = (100, 0, 0));
  (* 1,000 allocations of 1 to 5 cells from 7 sites, some of their byte
     counts rounded up to a whole cell *)
  let allocs =
    List.init 1000 (fun i ->
        let cells = 1 + (i mod 5) and site = i mod 7 in
        let bytes = (cells * 8) - (i mod 3) in
        (M.malloc m ~site bytes, cells, site))
  in
  List.iteri
    (fun i (addr, cells, site) ->
      let last = addr + ((cells - 1) * 8) and past = addr + (cells * 8) in
      let obj = (-2 - site, addr, past) in
      if extent addr <> obj || extent last <> obj then
        Alcotest.failf "allocation %d does not resolve to its extent" i;
      let next =
        match List.nth_opt allocs (i + 1) with
        | Some (_, _, s) -> Some (Loc.Lheap s)
        | None -> None
      in
      if M.loc_of_addr m past <> next then
        Alcotest.failf "the cell past allocation %d resolves wrongly" i)
    allocs;
  check_bool "unowned heap cell" true (extent (m.M.hp + 8) = (-1, 0, 0))

(* ---- ALAT ---- *)

let test_alat_basic () =
  let a = Spec_machine.Alat.create () in
  Spec_machine.Alat.insert a ~frame:1 ~reg:5 ~addr:0x1000;
  check_bool "hit after insert" true
    (Spec_machine.Alat.check a ~frame:1 ~reg:5);
  check_bool "other reg misses" false
    (Spec_machine.Alat.check a ~frame:1 ~reg:6);
  check_bool "other frame misses" false
    (Spec_machine.Alat.check a ~frame:2 ~reg:5);
  Spec_machine.Alat.invalidate_store a ~addr:0x1000 ~bytes:8;
  check_bool "store invalidates" false
    (Spec_machine.Alat.check a ~frame:1 ~reg:5)

let test_alat_partial_overlap () =
  let a = Spec_machine.Alat.create () in
  Spec_machine.Alat.insert a ~frame:1 ~reg:5 ~addr:0x1000;
  Spec_machine.Alat.invalidate_store a ~addr:0x1008 ~bytes:8;
  check_bool "disjoint store keeps entry" true
    (Spec_machine.Alat.check a ~frame:1 ~reg:5);
  Spec_machine.Alat.invalidate_store a ~addr:0x0FF8 ~bytes:16;
  check_bool "overlapping store invalidates" false
    (Spec_machine.Alat.check a ~frame:1 ~reg:5)

let test_alat_same_reg_replaced () =
  let a = Spec_machine.Alat.create () in
  Spec_machine.Alat.insert a ~frame:1 ~reg:5 ~addr:0x1000;
  Spec_machine.Alat.insert a ~frame:1 ~reg:5 ~addr:0x2000;
  (* only the newest address backs the register *)
  Spec_machine.Alat.invalidate_store a ~addr:0x1000 ~bytes:8;
  check_bool "old address no longer tracked" true
    (Spec_machine.Alat.check a ~frame:1 ~reg:5);
  Spec_machine.Alat.invalidate_store a ~addr:0x2000 ~bytes:8;
  check_bool "new address tracked" false
    (Spec_machine.Alat.check a ~frame:1 ~reg:5)

let test_alat_capacity () =
  let a = Spec_machine.Alat.create ~entries:4 ~assoc:2 () in
  (* five entries mapping into two sets: someone must be evicted *)
  for r = 0 to 7 do
    Spec_machine.Alat.insert a ~frame:1 ~reg:r ~addr:(0x1000 + (r * 8))
  done;
  let live = ref 0 in
  for r = 0 to 7 do
    if Spec_machine.Alat.check a ~frame:1 ~reg:r then incr live
  done;
  check_bool "capacity bounds live entries" true (!live <= 4);
  check_bool "evictions recorded" true (a.Spec_machine.Alat.capacity_evictions > 0)

(* ---- cache ---- *)

let test_cache_latencies () =
  let c = Spec_machine.Cache.create () in
  let cold = Spec_machine.Cache.load_latency c ~fp:false 0x10000 in
  check_int "cold miss costs memory latency" 120 cold;
  let warm = Spec_machine.Cache.load_latency c ~fp:false 0x10000 in
  check_int "L1 hit" 2 warm;
  let same_line = Spec_machine.Cache.load_latency c ~fp:false 0x10008 in
  check_int "same line hits" 2 same_line;
  (* fp bypasses L1: second access still pays L2 *)
  let fp_cold = Spec_machine.Cache.load_latency c ~fp:true 0x20000 in
  check_int "fp cold" 120 fp_cold;
  let fp_warm = Spec_machine.Cache.load_latency c ~fp:true 0x20000 in
  check_int "fp warm stays at L2 latency" 9 fp_warm

let test_cache_store_allocates () =
  let c = Spec_machine.Cache.create () in
  Spec_machine.Cache.store c 0x30000;
  check_int "load after store hits" 2
    (Spec_machine.Cache.load_latency c ~fp:false 0x30000)

(* ---- candidates ---- *)

let test_candidates () =
  let p =
    Lower.compile
      "int g; int main(){ int* q; q = &g; int x; x = *q + g * 2; return x; }"
  in
  let cands = Spec_ssapre.Candidates.create p.Sir.syms ~arith_pre:true in
  let f = Sir.find_func p "main" in
  let found = ref [] in
  Vec.iter
    (fun (b : Sir.bb) ->
      List.iter
        (fun (s : Sir.stmt) ->
          List.iter
            (Spec_ssapre.Candidates.iter_candidates cands
               (fun key tgt _ -> found := (key, tgt) :: !found))
            (Sir.stmt_exprs s.Sir.kind))
        b.Sir.stmts)
    f.Sir.fblocks;
  (* expect: the iload *q, the direct load of g (memory resident), and the
     arithmetic g*2 is NOT pure (g is a memory load), so g itself is the
     candidate *)
  let kinds =
    List.map
      (function
        | _, Spec_spec.Kills.Tsite _ -> "site"
        | _, Spec_spec.Kills.Tvar _ -> "var"
        | _, Spec_spec.Kills.Tpure -> "pure")
      !found
    |> List.sort compare
  in
  check_bool "found an iload candidate" true (List.mem "site" kinds);
  check_bool "found a scalar candidate" true (List.mem "var" kinds)

(* the interned keys of every candidate in [main], in statement order *)
let candidate_keys ~arith_pre src =
  let p = Lower.compile src in
  let cands = Spec_ssapre.Candidates.create p.Sir.syms ~arith_pre in
  let f = Sir.find_func p "main" in
  let keys = ref [] in
  Vec.iter
    (fun (b : Sir.bb) ->
      List.iter
        (fun (s : Sir.stmt) ->
          List.iter
            (Spec_ssapre.Candidates.iter_candidates cands
               (fun key _ _ -> keys := key :: !keys))
            (Sir.stmt_exprs s.Sir.kind))
        b.Sir.stmts)
    f.Sir.fblocks;
  List.rev !keys

let test_candidate_keys_stable () =
  match
    candidate_keys ~arith_pre:false
      "int main(int n){ int* q; q = (int*)malloc(64); \
       int x; x = q[3]; int y; y = q[3]; return x + y; }"
  with
  | [ k1; k2 ] -> check_int "same key for q[3] twice" k1 k2
  | ks -> Alcotest.failf "expected 2 candidates, got %d" (List.length ks)

(* Float constants are keyed by their bits: two that agree to twelve
   significant digits are still different expressions. *)
let test_candidate_keys_float_bits () =
  match
    candidate_keys ~arith_pre:true
      "int main(){ float a; float x; float y; a = (float)rnd(5); \
       x = a * 0.1; y = a * 0.10000000000001; \
       print_flt(x); print_flt(y); return 0; }"
  with
  | [ kx; ky ] ->
    check_bool "a * 0.1 and a * 0.10000000000001 get different keys" true
      (kx <> ky)
  | ks -> Alcotest.failf "expected 2 candidates, got %d" (List.length ks)

let suite =
  [ Alcotest.test_case "vec" `Quick test_vec;
    Alcotest.test_case "types" `Quick test_types;
    Alcotest.test_case "memory basic" `Quick test_memory_basic;
    Alcotest.test_case "memory faults" `Quick test_memory_faults;
    Alcotest.test_case "memory stack/heap" `Quick test_memory_stack_and_heap;
    Alcotest.test_case "alat basic" `Quick test_alat_basic;
    Alcotest.test_case "alat overlap" `Quick test_alat_partial_overlap;
    Alcotest.test_case "alat same reg" `Quick test_alat_same_reg_replaced;
    Alcotest.test_case "alat capacity" `Quick test_alat_capacity;
    Alcotest.test_case "cache latencies" `Quick test_cache_latencies;
    Alcotest.test_case "cache store allocates" `Quick test_cache_store_allocates;
    Alcotest.test_case "candidates" `Quick test_candidates;
    Alcotest.test_case "candidate keys" `Quick test_candidate_keys_stable;
    Alcotest.test_case "candidate keys: float constants by bits" `Quick
      test_candidate_keys_float_bits ]

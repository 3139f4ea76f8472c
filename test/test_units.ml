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

(* ---- Memory: images that grow with use ---- *)

(* A small heap keeps an image that a test grows to its full size
   small; images made here are never released, so none of them reaches
   the pool that the engines share. *)
let small_heap = 0x10000

let test_memory_layout () =
  let module M = Spec_prof.Memory in
  check_int "heap starts at stack_limit" M.stack_limit M.heap_base;
  let m, p = mk_mem () in
  check_int "size" (M.stack_limit + (24 * 1024 * 1024)) m.M.size;
  (* a size of its own, so that this is a fresh image, not a pooled one *)
  let m = M.create ~heap_bytes:small_heap p in
  check_bool "a fresh image covers its globals only" true
    (m.M.limit < M.stack_base);
  check_int "first allocation at the heap base" M.heap_base
    (M.malloc m ~site:1 8);
  check_bool "the allocation is covered" true (m.M.limit > M.heap_base);
  check_int "arrays match the limit" m.M.limit
    (Array.length m.M.ints * 8);
  check_int "float array too" m.M.limit (Array.length m.M.flts * 8)

let test_memory_uncovered () =
  let module M = Spec_prof.Memory in
  let p = Lower.compile "int g; int h[4]; int main(){ return 0; }" in
  let m = M.create ~heap_bytes:small_heap p in
  (* loads past the covered extent read 0 and do not grow the image *)
  let lim = m.M.limit in
  List.iter
    (fun addr ->
      check_bool "past the limit" true (addr >= lim);
      check_int "uncovered int cell" 0 (M.load_int m addr);
      Alcotest.(check (float 0.)) "uncovered float cell" 0.
        (M.load_flt m addr);
      check_int "uncovered spec load" 0 (M.load_int_spec m addr);
      Alcotest.(check (float 0.)) "uncovered spec fp load" 0.
        (M.load_flt_spec m addr))
    [ lim; M.stack_base; M.heap_base + 64; m.M.size - 8 ];
  check_int "loads do not grow" lim m.M.limit;
  (* a store to an uncovered in-range cell grows the arrays to it *)
  let g = M.global_addr m (List.hd p.Sir.globals) in
  M.store_int m g 42;
  M.store_flt m (g + 8) 2.5;
  let a = M.stack_base + 0x800 in
  M.store_int m a 7;
  check_bool "the store grew the image" true (m.M.limit > a);
  check_int "round trip" 7 (M.load_int m a);
  check_int "cell below still 0" 0 (M.load_int m (a - 8));
  check_int "cell above still 0" 0 (M.load_int m (a + 8));
  Alcotest.(check (float 0.)) "float cell of the address still 0" 0.
    (M.load_flt m a);
  (* contents survive growth: a store at the last cell covers the whole
     address space, copying what was written below *)
  let last = m.M.size - 8 in
  M.store_flt m last 1.5;
  check_int "now covers everything" m.M.size m.M.limit;
  Alcotest.(check (float 0.)) "last cell" 1.5 (M.load_flt m last);
  check_int "global survives growth" 42 (M.load_int m g);
  Alcotest.(check (float 0.)) "float global survives growth" 2.5
    (M.load_flt m (g + 8));
  check_int "stack cell survives growth" 7 (M.load_int m a)

let test_memory_growth_faults () =
  let module M = Spec_prof.Memory in
  let p = Lower.compile "int main(){ return 0; }" in
  let m = M.create ~heap_bytes:small_heap p in
  let faults f addr =
    match f addr with
    | () -> Alcotest.failf "expected a fault at 0x%x" addr
    | exception M.Fault _ -> ()
  in
  let bad = [ 0; 4; 12; -8; 1 lsl 40; m.M.size; m.M.size + 8; max_int - 7 ] in
  List.iter (faults (fun a -> ignore (M.load_int m a))) bad;
  List.iter (faults (fun a -> ignore (M.load_flt m a))) bad;
  List.iter (faults (fun a -> M.store_int m a 1)) bad;
  List.iter (faults (fun a -> M.store_flt m a 1.)) bad;
  check_int "faulting stores grow nothing" 0x1000 m.M.limit;
  List.iter
    (fun a -> check_int "spec load absorbs the fault" 0 (M.load_int_spec m a))
    bad;
  faults (fun a -> M.store_int m a 1) (M.heap_base + 4);
  faults (fun _ -> ignore (M.malloc m ~site:0 (small_heap + 8))) 0;
  M.store_int m (m.M.size - 8) 3;
  check_int "the last cell is in range" 3 (M.load_int m (m.M.size - 8))

(* A recycled image reads all zeros, whatever the previous run grew and
   dirtied: globals, stack cells, heap cells and a far store. *)
let test_memory_pool_scrub () =
  let module M = Spec_prof.Memory in
  (* a heap size of its own, so the pool hands this image back *)
  let heap_bytes = small_heap + 8 in
  let p = Lower.compile "int g; int h[4]; int main(){ return 0; }" in
  let m = M.create ~heap_bytes p in
  let g = M.global_addr m (List.hd p.Sir.globals) in
  M.store_int m g 1;
  M.store_flt m (g + 16) 1.;
  let s = M.push_frame_var m 100 32 in
  M.store_int m (s + 24) 2;
  M.store_flt m s 2.;
  ignore (M.push_frame_var m 101 8 : int);
  let h = M.malloc m ~site:3 4000 in
  M.store_int m (h + 3992) 3;
  M.store_flt m h 3.;
  M.store_int m (M.heap_base + small_heap) 4;
  M.release m;
  let q = Lower.compile "int main(){ return 0; }" in
  let m' = M.create ~heap_bytes q in
  check_bool "the pool handed the image back" true (m' == m);
  check_bool "ints all zero" true (Array.for_all (( = ) 0) m'.M.ints);
  check_bool "floats all +0." true
    (Array.for_all (fun f -> Int64.bits_of_float f = 0L) m'.M.flts);
  check_bool "stack owners all cleared" true
    (Array.for_all (( = ) (-1)) m'.M.stack_locs);
  check_int "no objects" 0 m'.M.n_obj;
  check_int "stack reset" M.stack_base m'.M.sp;
  check_int "heap reset" M.heap_base m'.M.hp;
  check_bool "old stack slot unowned" true (M.loc_of_addr m' s = None);
  check_bool "old allocation unowned" true (M.loc_of_addr m' h = None);
  check_bool "the grown arrays are kept" true (m'.M.limit > M.heap_base)

(* Image follows use: after the ten kernels' ref runs on the vm, the
   pooled image covers at most [stack_limit] plus twice the largest heap
   any of them allocated.  Each kernel's heap is found exactly by
   bisection on [heap_bytes]: the kernels allocate at set-up, so a short
   run exhausts a heap exactly when it is smaller than the whole run's. *)
let test_memory_follows_use () =
  let module M = Spec_prof.Memory in
  let module W = Spec_workloads.Workloads in
  let tiny = Lower.compile "int main(){ return 0; }" in
  (* take every default-size image out of the pool (it holds at most 4),
     so that the kernels' runs start from a fresh one *)
  for _ = 1 to 8 do ignore (M.create tiny : M.t) done;
  let progs =
    List.map
      (fun w -> Spec_prof.Vmcode.compile (Lower.compile (w.W.source w.W.ref_)))
      W.all
  in
  let exhausts vp heap_bytes =
    match Spec_prof.Vm.run_program ~fuel:10_000 ~heap_bytes vp with
    | _ -> false
    | exception Spec_prof.Interp.Runtime_error "heap exhausted" -> true
    | exception Spec_prof.Interp.Runtime_error _ -> false
  in
  let heap vp =
    (* the least heap that does not exhaust: [lo] exhausts, [hi] not *)
    let rec bisect lo hi =
      if hi - lo <= 8 then hi
      else
        let mid = (lo + hi) / 16 * 8 in
        if exhausts vp mid then bisect mid hi else bisect lo mid
    in
    if exhausts vp 0 then bisect 0 (24 * 1024 * 1024) else 0
  in
  let largest = List.fold_left (fun acc vp -> max acc (heap vp)) 0 progs in
  check_bool "the kernels allocate" true (largest > 0);
  List.iter (fun vp -> ignore (Spec_prof.Vm.run_program vp)) progs;
  let m = M.create tiny in
  check_bool "the runs' image came back from the pool" true
    (m.M.limit > M.heap_base);
  if m.M.limit > M.stack_limit + (2 * largest) then
    Alcotest.failf "image covers %d bytes, heap at most %d" m.M.limit largest;
  check_int "int cells follow the limit" m.M.limit (Array.length m.M.ints * 8);
  check_int "float cells follow the limit" m.M.limit
    (Array.length m.M.flts * 8);
  M.release m

(* malloc judges the size it is asked for before rounding it: a negative
   size or one past the heap is refused, however close to [max_int] *)
let test_memory_malloc_sizes () =
  let module M = Spec_prof.Memory in
  let p = Lower.compile "int main(){ return 0; }" in
  let m = M.create ~heap_bytes:small_heap p in
  let refused bytes =
    match M.malloc m ~site:0 bytes with
    | a -> Alcotest.failf "malloc %d returned 0x%x" bytes a
    | exception M.Fault _ -> ()
  in
  List.iter refused
    [ -1; -16; min_int; max_int; max_int - 6; max_int / 8; small_heap + 1 ];
  check_int "nothing allocated" M.heap_base m.M.hp;
  check_int "the whole heap fits" M.heap_base (M.malloc m ~site:0 small_heap);
  refused 1;
  (* on an engine, a refused size is the program's runtime error *)
  let neg = Lower.compile "int main(){ int *p; p = (int*)malloc(-16); \
                           p[0] = 7; return p[0]; }" in
  match Spec_prof.Vm.run neg with
  | _ -> Alcotest.fail "vm: expected malloc(-16) to fail"
  | exception Spec_prof.Interp.Runtime_error msg ->
    check_str "vm" "malloc of a negative size" msg

(* A run that grows its heap and then stops with an error hands its
   grown image back to the pool, on every engine *)
let test_memory_released_on_error () =
  let module M = Spec_prof.Memory in
  (* a heap size of its own, so the pool holds no other image of it *)
  let heap_bytes = small_heap + 24 in
  let tiny = Lower.compile "int main(){ return 0; }" in
  let p =
    Lower.compile
      "int main(){ int *p; p = (int*)malloc(8000); p[999] = 1; \
       while (p[0] < 1) { p[1] = p[1] + 1; } return 0; }"
  in
  let grown what run =
    (match run () with
     | () -> Alcotest.failf "%s: expected to run out of fuel" what
     | exception
         ( Spec_prof.Interp.Runtime_error _
         | Spec_prof.Interp_ref.Runtime_error _
         | Spec_machine.Machine.Machine_error _ ) -> ());
    let m = M.create ~heap_bytes tiny in
    check_bool (what ^ ": the grown image is pooled") true
      (m.M.limit > M.heap_base);
    M.release m
  in
  grown "vm" (fun () -> ignore (Spec_prof.Vm.run ~fuel:10_000 ~heap_bytes p));
  grown "oracle" (fun () ->
      ignore (Spec_prof.Interp_ref.run ~fuel:10_000 ~heap_bytes p));
  List.iter
    (fun kind ->
      let config =
        { Spec_machine.Machine.default_config with
          Spec_machine.Machine.heap_bytes; fuel = 10_000 }
      in
      grown
        (Spec_machine.Machine.backend_name kind)
        (fun () -> ignore (Spec_machine.Machine.run_sir_on kind ~config p)))
    Spec_machine.Machine.all_backends

(* A memory fault is the program's runtime error on every engine *)
let test_memory_fault_is_runtime_error () =
  let src = "int main() { int *p; p = 0; *p = 3; return 0; }" in
  let msg = "store at invalid address 0x0" in
  let p = Lower.compile src in
  (match Spec_prof.Vm.run p with
   | _ -> Alcotest.fail "vm: expected a runtime error"
   | exception Spec_prof.Interp.Runtime_error m -> check_str "vm" msg m);
  (match Spec_prof.Interp_ref.run p with
   | _ -> Alcotest.fail "oracle: expected a runtime error"
   | exception Spec_prof.Interp_ref.Runtime_error m ->
     check_str "oracle" msg m);
  List.iter
    (fun kind ->
      match Spec_machine.Machine.run_sir_on kind p with
      | _ -> Alcotest.fail "machine: expected a runtime error"
      | exception Spec_machine.Machine.Machine_error m ->
        check_str "machine" msg m)
    Spec_machine.Machine.all_backends;
  (* laying out the globals can fault too *)
  let big = Lower.compile "int a[200000]; int main() { return 0; }" in
  (match Spec_prof.Vm.run big with
   | _ -> Alcotest.fail "vm: expected a data segment overflow"
   | exception Spec_prof.Interp.Runtime_error m ->
     check_str "vm overflow" "data segment overflow" m);
  match Spec_machine.Machine.run_sir big with
  | _ -> Alcotest.fail "machine: expected a data segment overflow"
  | exception Spec_machine.Machine.Machine_error m ->
    check_str "machine overflow" "data segment overflow" m

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
    Alcotest.test_case "memory layout" `Quick test_memory_layout;
    Alcotest.test_case "memory uncovered cells" `Quick test_memory_uncovered;
    Alcotest.test_case "memory faults after growth" `Quick
      test_memory_growth_faults;
    Alcotest.test_case "memory pool scrub" `Quick test_memory_pool_scrub;
    Alcotest.test_case "memory image follows use" `Quick
      test_memory_follows_use;
    Alcotest.test_case "memory fault is a runtime error" `Quick
      test_memory_fault_is_runtime_error;
    Alcotest.test_case "malloc refuses bad sizes" `Quick
      test_memory_malloc_sizes;
    Alcotest.test_case "memory image released on error" `Quick
      test_memory_released_on_error;
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

(* Tests for codegen, the ALAT, caches, and the machine simulator:
   differential execution against the reference interpreter under every
   pipeline, plus performance-model sanity checks. *)

open Spec_ir
open Spec_driver
open Spec_machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let interp_out p = (Spec_prof.Vm.run p).Spec_prof.Interp.output

let machine_out p = (Machine.run_sir p).Machine.output

let test_machine_basic () =
  let p = Lower.compile "int main(){ print_int(2 + 3 * 4); return 0; }" in
  check_str "arith" "14\n" (machine_out p)

let test_machine_matches_interp_suite () =
  let srcs =
    [ "int main(){ int s; s = 0; for (int i = 0; i < 10; i++) s += i; \
       print_int(s); return 0; }";
      "int a[8]; int main(){ for (int i = 0; i < 8; i++) a[i] = i * i; \
       int s; s = 0; for (int i = 0; i < 8; i++) s += a[i]; \
       print_int(s); return 0; }";
      "float acc; int main(){ float x; x = 0.25; acc = 0.0; \
       for (int i = 0; i < 12; i++) { acc = acc + x; x = x * 1.5; } \
       print_flt(acc); return 0; }";
      "int fib(int n){ if (n < 2) return n; return fib(n-1) + fib(n-2); } \
       int main(){ print_int(fib(12)); return 0; }";
      "int main(){ int* p; p = (int*)malloc(64); \
       for (int i = 0; i < 8; i++) p[i] = 3 * i; \
       int s; s = 0; for (int i = 0; i < 8; i++) s += p[i]; \
       print_int(s); return 0; }";
      "int main(){ seed(7); int s; s = 0; \
       for (int i = 0; i < 20; i++) s += rnd(100); \
       print_int(s); return 0; }" ]
  in
  List.iter
    (fun src ->
      let pi = Lower.compile src in
      let pm = Lower.compile src in
      check_str "machine matches interpreter" (interp_out pi) (machine_out pm))
    srcs

let spec_src =
  "int g; int h; \
   int main(){ int s; s = 0; g = 7; int* w; w = &h; \
   if (rnd(1000) == 999) w = &g; \
   for (int i = 0; i < 200; i++) { s = s + g; *w = i; } \
   print_int(s); print_int(h); return 0; }"

let optimize ?edge src variant =
  let prof = Pipeline.profile_of_source src in
  let edge_profile = if edge = Some false then None else Some prof in
  (Pipeline.compile_and_optimize ~edge_profile src variant).Pipeline.prog

let test_machine_runs_speculative_code () =
  let baseline = interp_out (Lower.compile spec_src) in
  List.iter
    (fun variant ->
      let p = optimize spec_src variant in
      check_str
        (Printf.sprintf "machine output under %s" (Pipeline.variant_name variant))
        baseline (machine_out p))
    [ Pipeline.Noopt; Pipeline.Base; Pipeline.Spec_heuristic ]

let test_alat_hit_makes_checks_free () =
  (* no aliasing at runtime: every ld.c must hit *)
  let p = optimize spec_src Pipeline.Spec_heuristic in
  let r = Machine.run_sir p in
  check_bool "checks executed" true (r.Machine.perf.Machine.checks >= 190);
  check_int "no check misses" 0 r.Machine.perf.Machine.check_misses

let test_alat_miss_recovers () =
  (* p and q do alias at runtime: the checks must miss and recover *)
  let src =
    "int a[4]; int b[4]; \
     int main(){ int* p; int* q; int x; int y; \
     p = &a[0]; q = &b[0]; \
     if (rnd(10) < 100) q = &a[0]; \
     a[0] = 1; \
     x = *p; *q = 42; y = *p; \
     print_int(y); return 0; }"
  in
  let p = optimize src Pipeline.Spec_heuristic in
  let r = Machine.run_sir p in
  check_str "mis-speculation recovered on machine" "42\n" r.Machine.output;
  check_bool "at least one check missed" true
    (r.Machine.perf.Machine.check_misses >= 1)

let test_speculation_reduces_loads_and_cycles () =
  let base = Machine.run_sir (optimize spec_src Pipeline.Base) in
  let spec = Machine.run_sir (optimize spec_src Pipeline.Spec_heuristic) in
  let base_loads = Machine.loads_retired base.Machine.perf in
  let spec_loads = Machine.loads_retired spec.Machine.perf in
  check_bool "speculation reduces retired loads" true (spec_loads < base_loads);
  check_bool "speculation reduces cycles" true
    (spec.Machine.perf.Machine.cycles < base.Machine.perf.Machine.cycles)

let test_fp_loads_slower_than_int () =
  let int_src =
    "int a[64]; int main(){ int s; s = 0; \
     for (int r = 0; r < 50; r++) for (int i = 0; i < 64; i++) s += a[i]; \
     print_int(s); return 0; }"
  in
  let flt_src =
    "float a[64]; int main(){ float s; s = 0.0; \
     for (int r = 0; r < 50; r++) for (int i = 0; i < 64; i++) s = s + a[i]; \
     print_flt(s); return 0; }"
  in
  let ri = Machine.run_sir (Lower.compile int_src) in
  let rf = Machine.run_sir (Lower.compile flt_src) in
  check_bool "fp loads cost more cycles" true
    (rf.Machine.perf.Machine.cycles > ri.Machine.perf.Machine.cycles)

let test_cache_locality_matters () =
  (* sequential sweep over a big array vs. repeated sweep over a tiny one *)
  let big =
    "int a[65536]; int main(){ int s; s = 0; \
     for (int i = 0; i < 65536; i++) s += a[i]; \
     print_int(s); return 0; }"
  in
  let small =
    "int a[64]; int main(){ int s; s = 0; \
     for (int r = 0; r < 1024; r++) for (int i = 0; i < 64; i++) s += a[i]; \
     print_int(s); return 0; }"
  in
  let rb = Machine.run_sir (Lower.compile big) in
  let rs = Machine.run_sir (Lower.compile small) in
  (* same load count, worse locality -> more cycles per load *)
  let cyc_per_load r =
    float_of_int r.Machine.perf.Machine.cycles
    /. float_of_int (max 1 (Machine.loads_retired r.Machine.perf))
  in
  check_bool "cold misses cost cycles" true (cyc_per_load rb > cyc_per_load rs)

let test_alat_capacity_pressure () =
  (* more live advanced loads than ALAT entries: checks must start missing
     when the table is tiny *)
  let src =
    (* 40 distinct speculative temps alive across an aliasing store *)
    let decls = Buffer.create 256 in
    Buffer.add_string decls "int g[64]; int h; int main(){ int* w; w = &h; \
      if (rnd(1000) == 999) w = &g[0]; int s; s = 0; \
      for (int r = 0; r < 50; r++) { ";
    for k = 0 to 39 do
      Buffer.add_string decls (Printf.sprintf "s += g[%d]; " k)
    done;
    Buffer.add_string decls "*w = r; ";
    for k = 0 to 39 do
      Buffer.add_string decls (Printf.sprintf "s += g[%d]; " k)
    done;
    Buffer.add_string decls "} print_int(s); return 0; }";
    Buffer.contents decls
  in
  let p = optimize src Pipeline.Spec_heuristic in
  let big_alat =
    Machine.run ~config:{ Machine.default_config with Machine.alat_entries = 128 }
      (Spec_codegen.Codegen.lower p)
  in
  let p2 = optimize src Pipeline.Spec_heuristic in
  let small_alat =
    Machine.run ~config:{ Machine.default_config with Machine.alat_entries = 8 }
      (Spec_codegen.Codegen.lower p2)
  in
  check_bool "small ALAT misses more" true
    (small_alat.Machine.perf.Machine.check_misses
     > big_alat.Machine.perf.Machine.check_misses);
  (* correctness unaffected by capacity *)
  check_str "same output" big_alat.Machine.output small_alat.Machine.output

let test_rse_accounting () =
  let src =
    "int deep(int n){ int a; int b; int c; int d; \
     a = n; b = a + 1; c = b + 1; d = c + 1; \
     if (n <= 0) return d; return deep(n - 1) + a; } \
     int main(){ print_int(deep(40)); return 0; }"
  in
  let r = Machine.run_sir (Lower.compile src) in
  check_bool "deep recursion stacks registers" true
    (r.Machine.perf.Machine.max_stacked_regs > 96);
  check_bool "RSE spills cost cycles" true
    (r.Machine.perf.Machine.rse_stall_cycles > 0)

(* ---- ALAT unit tests (direct table model, no machine run) ---- *)

(* entries=4, assoc=2 -> two sets; set index is (addr lsr 3) land 1, so
   addresses 0,16,32,48 share set 0 and 8,24,40 share set 1 *)
let small_alat () = Alat.create ~entries:4 ~assoc:2 ()

let test_alat_same_reg_reinsert () =
  let t = small_alat () in
  Alat.insert t ~frame:0 ~reg:5 ~addr:0;
  Alat.insert t ~frame:0 ~reg:5 ~addr:16;
  (* the re-insert replaces, it does not occupy a second slot *)
  check_int "single live entry" 1 (Alat.live t);
  check_int "replacement is not a capacity eviction" 0 t.Alat.capacity_evictions;
  check_bool "tag still present" true (Alat.check t ~frame:0 ~reg:5);
  (* the entry now guards the new address, not the old one *)
  Alat.invalidate_store t ~addr:0 ~bytes:8;
  check_bool "store to the old address is harmless" true
    (Alat.check t ~frame:0 ~reg:5);
  Alat.invalidate_store t ~addr:16 ~bytes:8;
  check_bool "store to the new address invalidates" false
    (Alat.check t ~frame:0 ~reg:5)

let test_alat_store_cell_boundary () =
  (* an entry guards the cell [addr, addr + cell_size) *)
  let cell = Spec_ir.Types.cell_size in
  let hit addr bytes =
    let t = small_alat () in
    Alat.insert t ~frame:0 ~reg:1 ~addr:(cell * 2);
    Alat.invalidate_store t ~addr ~bytes;
    not (Alat.check t ~frame:0 ~reg:1)
  in
  check_bool "store inside the cell invalidates" true (hit (cell * 2) 1);
  check_bool "store straddling the upper boundary invalidates" true
    (hit ((cell * 3) - 1) 2);
  check_bool "store ending exactly at the cell start is harmless" false
    (hit cell cell);
  check_bool "store starting exactly past the cell is harmless" false
    (hit (cell * 3) cell);
  check_bool "store straddling the lower boundary invalidates" true
    (hit ((cell * 2) - 1) 2)

let test_alat_round_robin_eviction () =
  let t = small_alat () in
  (* fill set 0, then overflow it twice: the global round-robin victim
     counter is bumped before use, so the second slot goes first *)
  Alat.insert t ~frame:0 ~reg:1 ~addr:0;
  Alat.insert t ~frame:0 ~reg:2 ~addr:16;
  Alat.insert t ~frame:0 ~reg:3 ~addr:32;
  check_int "first overflow evicts" 1 t.Alat.capacity_evictions;
  check_bool "round-robin victim is slot 1 (reg 2)" false
    (Alat.check t ~frame:0 ~reg:2);
  check_bool "slot 0 (reg 1) survives the first eviction" true
    (Alat.check t ~frame:0 ~reg:1);
  Alat.insert t ~frame:0 ~reg:4 ~addr:48;
  check_int "second overflow evicts" 2 t.Alat.capacity_evictions;
  check_bool "victim rotation reaches slot 0 (reg 1)" false
    (Alat.check t ~frame:0 ~reg:1);
  check_bool "reg 3 survives" true (Alat.check t ~frame:0 ~reg:3);
  check_bool "reg 4 survives" true (Alat.check t ~frame:0 ~reg:4);
  check_int "set never holds more than assoc entries" 2 (Alat.live t)

let test_alat_frame_tag_collision () =
  (* the same register number in two activations must not collide *)
  let t = small_alat () in
  Alat.insert t ~frame:1 ~reg:5 ~addr:0;
  Alat.insert t ~frame:2 ~reg:5 ~addr:16;
  check_int "both activations live" 2 (Alat.live t);
  check_bool "frame 1 hit" true (Alat.check t ~frame:1 ~reg:5);
  check_bool "frame 2 hit" true (Alat.check t ~frame:2 ~reg:5);
  Alat.invalidate_store t ~addr:0 ~bytes:4;
  check_bool "store kills only the matching activation" false
    (Alat.check t ~frame:1 ~reg:5);
  check_bool "the other activation survives" true
    (Alat.check t ~frame:2 ~reg:5)

let test_alat_counter_pinning () =
  (* regression for the O(1) tag-index insert: the counter stream of a
     mixed insert/replace/evict/store sequence is pinned exactly *)
  let t = small_alat () in
  Alat.insert t ~frame:0 ~reg:1 ~addr:0;    (* set 0, slot 0 *)
  Alat.insert t ~frame:0 ~reg:2 ~addr:8;    (* set 1, slot 0 *)
  Alat.insert t ~frame:0 ~reg:1 ~addr:16;   (* same tag: replace in set 0 *)
  Alat.insert t ~frame:0 ~reg:3 ~addr:32;   (* set 0, slot 1 *)
  Alat.insert t ~frame:0 ~reg:4 ~addr:48;   (* set 0 full: evict slot 1 *)
  check_int "inserts" 5 t.Alat.inserts;
  check_int "capacity evictions" 1 t.Alat.capacity_evictions;
  check_bool "evicted tag gone" false (Alat.check t ~frame:0 ~reg:3);
  check_bool "replaced tag live at its new address" true
    (Alat.check t ~frame:0 ~reg:1);
  Alat.invalidate_store t ~addr:16 ~bytes:4;
  check_int "store invalidations" 1 t.Alat.store_invalidations;
  check_bool "store killed the replaced tag" false
    (Alat.check t ~frame:0 ~reg:1);
  check_int "survivors" 2 (Alat.live t);
  (* stale tag fields on an invalidated slot must not shadow the live
     mapping owned by a newer entry (the tag-index consistency rule) *)
  Alat.insert t ~frame:0 ~reg:7 ~addr:0;
  Alat.insert t ~frame:0 ~reg:7 ~addr:24;   (* moves tag (0,7) to set 1 *)
  Alat.insert t ~frame:0 ~reg:9 ~addr:0;    (* reuses the stale set-0 slot *)
  check_bool "moved tag still resolves" true (Alat.check t ~frame:0 ~reg:7);
  check_bool "new tag resolves" true (Alat.check t ~frame:0 ~reg:9)

(* ---- rewritten hot paths against their former implementations ---- *)

(* The full-table scan [Alat.invalidate_store] used to run, kept as the
   reference for the set-indexed version. *)
let ref_invalidate_store (t : Alat.t) ~addr ~bytes =
  Array.iter
    (fun set ->
      Array.iter
        (fun (e : Alat.entry) ->
          if e.Alat.valid && e.Alat.addr < addr + bytes
             && addr < e.Alat.addr + Spec_ir.Types.cell_size
          then begin
            e.Alat.valid <- false;
            (match Hashtbl.find_opt t.Alat.tags (e.Alat.tag_frame, e.Alat.tag_reg) with
             | Some e' when e' == e ->
               Hashtbl.remove t.Alat.tags (e.Alat.tag_frame, e.Alat.tag_reg)
             | _ -> ());
            t.Alat.store_invalidations <- t.Alat.store_invalidations + 1
          end)
        set)
    t.Alat.sets

type alat_op =
  | Ins of int * int * int         (* frame, reg, addr *)
  | Store of int * int             (* addr, bytes *)
  | Chk of int * int               (* frame, reg *)

let gen_alat_case =
  QCheck.Gen.(
    let* entries = oneofl [ 2; 4; 6; 32 ] in
    let addr = int_range 0 400 in      (* unaligned *)
    let op =
      frequency
        [ 4, map3 (fun f r a -> Ins (f, r, a)) (int_range 0 2) (int_range 0 7) addr;
          3, map2 (fun a b -> Store (a, b)) addr (int_range 1 16);
          3, map2 (fun f r -> Chk (f, r)) (int_range 0 2) (int_range 0 7) ]
    in
    let* ops = list_size (int_range 1 200) op in
    return (entries, ops))

let print_alat_case (entries, ops) =
  Printf.sprintf "entries=%d: %s" entries
    (String.concat "; "
       (List.map
          (function
            | Ins (f, r, a) -> Printf.sprintf "ins %d/%d@%d" f r a
            | Store (a, b) -> Printf.sprintf "st %d+%d" a b
            | Chk (f, r) -> Printf.sprintf "chk %d/%d" f r)
          ops))

let prop_alat_set_indexed_store =
  QCheck.Test.make ~count:300
    ~name:"ALAT set-indexed store invalidation = full scan"
    (QCheck.make ~print:print_alat_case gen_alat_case)
    (fun (entries, ops) ->
      let fast = Alat.create ~entries () and slow = Alat.create ~entries () in
      List.for_all
        (function
          | Ins (frame, reg, addr) ->
            Alat.insert fast ~frame ~reg ~addr;
            Alat.insert slow ~frame ~reg ~addr;
            true
          | Store (addr, bytes) ->
            Alat.invalidate_store fast ~addr ~bytes;
            ref_invalidate_store slow ~addr ~bytes;
            true
          | Chk (frame, reg) ->
            Alat.check fast ~frame ~reg = Alat.check slow ~frame ~reg)
        ops
      && fast.Alat.store_invalidations = slow.Alat.store_invalidations
      && fast.Alat.capacity_evictions = slow.Alat.capacity_evictions
      && Alat.live fast = Alat.live slow)

(* The closure-based two-level cache [Cache.probe] used to be, kept as
   the reference for the loop version. *)
module Ref_cache = struct
  type level = {
    tags : int array array;
    lru : int array array;
    n_sets : int;
    line_bits : int;
    mutable hits : int;
    mutable misses : int;
  }

  let mk_level ~size_kb ~ways ~line =
    let line_bits =
      let rec bits n = if n <= 1 then 0 else 1 + bits (n / 2) in
      bits line
    in
    let n_sets = size_kb * 1024 / line / ways in
    { tags = Array.init n_sets (fun _ -> Array.make ways (-1));
      lru = Array.init n_sets (fun _ -> Array.init ways (fun i -> i));
      n_sets; line_bits; hits = 0; misses = 0 }

  let probe lvl addr =
    let line = addr lsr lvl.line_bits in
    let set = line mod lvl.n_sets in
    let tags = lvl.tags.(set) and lru = lvl.lru.(set) in
    let hit = ref (-1) in
    Array.iteri (fun i t -> if t = line then hit := i) tags;
    if !hit >= 0 then begin
      lvl.hits <- lvl.hits + 1;
      Array.iteri (fun i age -> if age < lru.(!hit) then lru.(i) <- lru.(i) + 1)
        lru;
      lru.(!hit) <- 0;
      true
    end
    else begin
      lvl.misses <- lvl.misses + 1;
      let victim = ref 0 in
      Array.iteri (fun i age -> if age > lru.(!victim) then victim := i) lru;
      tags.(!victim) <- line;
      Array.iteri (fun i age -> lru.(i) <- age + 1) lru;
      lru.(!victim) <- 0;
      false
    end

  (* 1 KB 4-way L1, 4 KB 8-way L2: small enough to evict constantly *)
  let create () =
    (mk_level ~size_kb:1 ~ways:4 ~line:64, mk_level ~size_kb:4 ~ways:8 ~line:64)

  let load_latency (l1, l2) ~fp addr =
    if fp then (if probe l2 addr then 9 else 120)
    else if probe l1 addr then 2
    else if probe l2 addr then 9
    else 120

  let store (l1, l2) addr = ignore (probe l1 addr); ignore (probe l2 addr)
end

let prop_cache_probe_loops =
  QCheck.Test.make ~count:200 ~name:"cache probe loops = closure version"
    (QCheck.make
       ~print:(fun ops ->
         String.concat " "
           (List.map (fun (k, a) -> Printf.sprintf "%d@%d" k a) ops))
       QCheck.Gen.(
         list_size (int_range 1 600)
           (pair (int_range 0 2) (int_range 0 (8 * 1024)))))
    (fun ops ->
      let c = Cache.create ~l1_kb:1 ~l2_kb:4 () and r = Ref_cache.create () in
      List.for_all
        (fun (kind, addr) ->
          match kind with
          | 0 -> Cache.store c addr; Ref_cache.store r addr; true
          | k ->
            let fp = k = 2 in
            Cache.load_latency c ~fp addr = Ref_cache.load_latency r ~fp addr)
        ops
      &&
      let (l1, l2) = r in
      Cache.counts c
      = ((l1.Ref_cache.hits, l1.Ref_cache.misses),
         (l2.Ref_cache.hits, l2.Ref_cache.misses)))

(* differential property over random programs, through codegen *)
let prop_machine_differential =
  QCheck.Test.make ~count:40
    ~name:"machine and interpreter agree on random speculative programs"
    (QCheck.make ~print:Fun.id
       QCheck.Gen.(
         let* n = int_range 3 10 in
         let* alias_pct = int_range 0 100 in
         return
           (Printf.sprintf
              "int a[4]; int b[4]; \
               int main(){ int* q; int s; s = 0; q = &b[0]; \
               for (int i = 0; i < %d; i++) { \
                 if (rnd(100) < %d) q = &a[i %% 4]; else q = &b[i %% 4]; \
                 *q = i; s += a[0] + a[i %% 4] + b[1]; } \
               print_int(s); return 0; }"
              n alias_pct)))
    (fun src ->
      let baseline = interp_out (Lower.compile src) in
      List.for_all
        (fun variant ->
          let p = optimize src variant in
          machine_out p = baseline)
        [ Pipeline.Base; Pipeline.Spec_heuristic ])

let suite =
  [ Alcotest.test_case "machine basic" `Quick test_machine_basic;
    Alcotest.test_case "machine matches interp" `Quick test_machine_matches_interp_suite;
    Alcotest.test_case "machine speculative code" `Quick test_machine_runs_speculative_code;
    Alcotest.test_case "ALAT hits are free" `Quick test_alat_hit_makes_checks_free;
    Alcotest.test_case "ALAT miss recovers" `Quick test_alat_miss_recovers;
    Alcotest.test_case "spec reduces loads+cycles" `Quick test_speculation_reduces_loads_and_cycles;
    Alcotest.test_case "fp loads slower" `Quick test_fp_loads_slower_than_int;
    Alcotest.test_case "cache locality" `Quick test_cache_locality_matters;
    Alcotest.test_case "ALAT capacity pressure" `Quick test_alat_capacity_pressure;
    Alcotest.test_case "ALAT same-register re-insert" `Quick test_alat_same_reg_reinsert;
    Alcotest.test_case "ALAT store at cell boundary" `Quick test_alat_store_cell_boundary;
    Alcotest.test_case "ALAT round-robin eviction" `Quick test_alat_round_robin_eviction;
    Alcotest.test_case "ALAT frame-tag collision" `Quick test_alat_frame_tag_collision;
    Alcotest.test_case "ALAT counter pinning" `Quick test_alat_counter_pinning;
    Alcotest.test_case "RSE accounting" `Quick test_rse_accounting;
    QCheck_alcotest.to_alcotest prop_alat_set_indexed_store;
    QCheck_alcotest.to_alcotest prop_cache_probe_loops;
    QCheck_alcotest.to_alcotest prop_machine_differential ]

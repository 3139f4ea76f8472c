(** Flat cell-addressed memory shared by the reference interpreter and the
    machine simulator.

    The address space is split into a data segment (globals), a stack, and a
    heap.  Every scalar occupies one 8-byte cell; integer and float cells
    are stored unboxed in two parallel arrays (the typed source language
    never reads a cell at a different scalar kind than it was written, the
    same assumption the type-based alias analysis makes).

    The memory also resolves addresses to abstract memory locations (LOCs)
    for the alias profiler. *)

open Spec_ir

let data_base = 0x1000
let stack_base = 0x100_000
let stack_limit = 0x400_000
let heap_base = 0x1_000_000

type t = {
  ints : int array;
  flts : float array;
  size : int;                          (* in bytes *)
  (* LOC resolution *)
  data_locs : int array;               (* data cell index -> var id *)
  mutable stack_locs : int array;      (* stack cell index -> var id, -1 none *)
  mutable heap_allocs : (int * int * int) array;
      (* (start addr, byte length, alloc site), sorted by start *)
  mutable heap_n : int;
  mutable heap_last : int;             (* heap_allocs index [owner] last hit *)
  mutable sp : int;                    (* next free stack address *)
  mutable hp : int;                    (* next free heap address *)
  global_addr : (int, int) Hashtbl.t;  (* var id -> address *)
  (* high-water marks, so a recycled image only re-zeroes what the
     previous run actually dirtied (see the pool below).  The dirty
     range is tracked per segment: the heap starts 16 MB into the
     address space, so a single mark would drag the untouched
     stack-to-heap gap into every scrub — milliseconds of memset that
     used to dominate short engine runs. *)
  mutable hw_low : int;                (* written cells below the heap *)
  mutable hw_heap : int;               (* written cells >= heap_cell0 *)
  mutable data_hw : int;               (* data_locs cells used by layout *)
  mutable stack_hw : int;              (* exclusive bound of stack_locs use *)
}

exception Fault of string

let fault fmt = Fmt.kstr (fun s -> raise (Fault s)) fmt

(* ------------------------------------------------------------------ *)
(* Image pool                                                          *)
(*                                                                     *)
(* A fresh image is two ~size/8-element arrays — 80 MB of zeroing for  *)
(* the default 24 MB heap — and the experiment harness creates one per *)
(* profiling or simulation run.  Instead of paying that alloc+zero     *)
(* cost every time, [release] parks an image in a small pool and       *)
(* [create] revives one of matching size, re-zeroing only the cells    *)
(* the previous run wrote (tracked by the high-water marks).  The pool *)
(* is shared across domains and guarded by a mutex; the arrays of a    *)
(* pooled image are owned by exactly one run at a time.                *)
(* ------------------------------------------------------------------ *)

let pool : t list ref = ref []
let pool_mu = Mutex.create ()
let pool_cap = 4

(** Return [m] to the image pool.  The caller must not touch [m] again:
    the engines call this once a run is over. *)
let release (m : t) =
  Mutex.lock pool_mu;
  if List.length !pool < pool_cap then pool := m :: !pool;
  Mutex.unlock pool_mu

let take_pooled size =
  Mutex.lock pool_mu;
  let rec pick acc = function
    | [] -> pool := List.rev acc; None
    | m :: rest when m.size = size ->
      pool := List.rev_append acc rest;
      Some m
    | m :: rest -> pick (m :: acc) rest
  in
  let r = pick [] !pool in
  Mutex.unlock pool_mu;
  r

(* Scrub the regions the previous run dirtied, bringing the image back
   to the all-zeros state a fresh allocation guarantees. *)
let heap_cell0 = heap_base / Types.cell_size

let scrub (m : t) =
  Array.fill m.ints 0 m.hw_low 0;
  Array.fill m.flts 0 m.hw_low 0.;
  Array.fill m.ints heap_cell0 (m.hw_heap - heap_cell0) 0;
  Array.fill m.flts heap_cell0 (m.hw_heap - heap_cell0) 0.;
  Array.fill m.data_locs 0 m.data_hw (-1);
  Array.fill m.stack_locs 0 m.stack_hw (-1);
  m.heap_n <- 0;
  m.sp <- stack_base;
  m.hp <- heap_base;
  Hashtbl.reset m.global_addr;
  m.hw_low <- 0;
  m.hw_heap <- heap_cell0;
  m.data_hw <- 0;
  m.stack_hw <- 0

(** Create a memory image with the program's globals laid out in the data
    segment.  [heap_bytes] bounds heap allocation. *)
let create ?(heap_bytes = 24 * 1024 * 1024) (p : Sir.prog) : t =
  let size = heap_base + heap_bytes in
  let cells = size / Types.cell_size in
  let data_cells = (stack_base - data_base) / Types.cell_size in
  let stack_cells = (stack_limit - stack_base) / Types.cell_size in
  let m =
    match take_pooled size with
    | Some m -> scrub m; m
    | None ->
      { ints = Array.make cells 0;
        flts = Array.make cells 0.;
        size;
        data_locs = Array.make data_cells (-1);
        stack_locs = Array.make stack_cells (-1);
        heap_allocs = Array.make 64 (0, 0, 0);
        heap_n = 0;
        heap_last = 0;
        sp = stack_base;
        hp = heap_base;
        global_addr = Hashtbl.create 16;
        hw_low = 0;
        hw_heap = heap_cell0;
        data_hw = 0;
        stack_hw = 0 }
  in
  let next = ref data_base in
  List.iter
    (fun g ->
      let v = Symtab.var p.Sir.syms g in
      Hashtbl.replace m.global_addr g !next;
      let cells_used = max 1 (v.Symtab.vsize / Types.cell_size) in
      for c = 0 to cells_used - 1 do
        m.data_locs.((!next - data_base) / Types.cell_size + c) <- g
      done;
      next := !next + cells_used * Types.cell_size)
    p.Sir.globals;
  m.data_hw <- (!next - data_base) / Types.cell_size;
  if !next > stack_base then fault "data segment overflow";
  m

let check m addr what =
  if addr < data_base || addr + Types.cell_size > m.size then
    fault "%s at invalid address 0x%x" what addr;
  if addr mod Types.cell_size <> 0 then
    fault "%s at unaligned address 0x%x" what addr

let cell addr = addr / Types.cell_size

let load_int m addr = check m addr "load"; m.ints.(cell addr)
let load_flt m addr = check m addr "load"; m.flts.(cell addr)

let touch m c =
  if c >= heap_cell0 then begin
    if c >= m.hw_heap then m.hw_heap <- c + 1
  end
  else if c >= m.hw_low then m.hw_low <- c + 1

let store_int m addr v =
  check m addr "store";
  let c = cell addr in
  touch m c;
  m.ints.(c) <- v

let store_flt m addr v =
  check m addr "store";
  let c = cell addr in
  touch m c;
  m.flts.(c) <- v

(** Non-faulting load for control-speculatively hoisted code (ld.s
    semantics: a bad address defers the fault; the value is never consumed
    on the mis-speculated path). *)
let load_int_spec m addr =
  if addr < data_base || addr + Types.cell_size > m.size
     || addr mod Types.cell_size <> 0
  then 0
  else m.ints.(cell addr)

let load_flt_spec m addr =
  if addr < data_base || addr + Types.cell_size > m.size
     || addr mod Types.cell_size <> 0
  then 0.
  else m.flts.(cell addr)

let global_addr m vid =
  match Hashtbl.find_opt m.global_addr vid with
  | Some a -> a
  | None -> fault "global %d has no address" vid

(* ---- stack frames ---- *)

(** Allocate [bytes] of stack for variable [vid]; returns the address. *)
let push_frame_var m vid bytes =
  let addr = m.sp in
  if addr + bytes > stack_limit then fault "stack overflow";
  m.sp <- m.sp + bytes;
  let base_cell = (addr - stack_base) / Types.cell_size in
  let ncells = bytes / Types.cell_size in
  for c = 0 to ncells - 1 do
    m.stack_locs.(base_cell + c) <- vid
  done;
  if base_cell + ncells > m.stack_hw then m.stack_hw <- base_cell + ncells;
  addr

let stack_mark m = m.sp

let pop_frame m mark =
  (* stale [stack_locs] entries above the mark are cleared lazily: they are
     overwritten on the next push; clear eagerly for LOC accuracy *)
  for c = (mark - stack_base) / Types.cell_size
      to (m.sp - stack_base) / Types.cell_size - 1 do
    m.stack_locs.(c) <- -1
  done;
  m.sp <- mark

(* ---- heap ---- *)

let malloc m ~site bytes =
  let bytes = max Types.cell_size ((bytes + 7) / 8 * 8) in
  let addr = m.hp in
  if addr + bytes > m.size then fault "heap exhausted";
  m.hp <- m.hp + bytes;
  if m.heap_n = Array.length m.heap_allocs then begin
    let a = Array.make (2 * m.heap_n) (0, 0, 0) in
    Array.blit m.heap_allocs 0 a 0 m.heap_n;
    m.heap_allocs <- a
  end;
  m.heap_allocs.(m.heap_n) <- (addr, bytes, site);
  m.heap_n <- m.heap_n + 1;
  addr

(* ---- LOC resolution ---- *)

(* Allocation site of the heap object holding [addr], encoded as for
   [owner].  The allocation found last is tried before the binary
   search; its range is re-checked, so a stale index is harmless. *)
let heap_owner m addr =
  let i = m.heap_last in
  let start, len, site =
    if i < m.heap_n then m.heap_allocs.(i) else (0, 0, 0)
  in
  if addr >= start && addr < start + len then -2 - site
  else begin
    let lo = ref 0 and hi = ref (m.heap_n - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let start, len, site = m.heap_allocs.(mid) in
      if addr < start then hi := mid - 1
      else if addr >= start + len then lo := mid + 1
      else begin
        found := -2 - site;
        m.heap_last <- mid;
        lo := !hi + 1
      end
    done;
    !found
  end

(** What [addr] belongs to, without allocating: a variable id ([>= 0]),
    [-2 - site] for a heap object allocated at [site], or [-1]. *)
let owner m addr =
  if addr >= data_base && addr < stack_base then
    m.data_locs.(cell (addr - data_base))
  else if addr >= stack_base && addr < stack_limit then
    m.stack_locs.(cell (addr - stack_base))
  else if addr >= heap_base && addr < m.hp then heap_owner m addr
  else -1

(** Resolve an address to its abstract memory location. *)
let loc_of_addr m addr : Loc.t option =
  let o = owner m addr in
  if o >= 0 then Some (Loc.Lvar o)
  else if o = -1 then None
  else Some (Loc.Lheap (-2 - o))

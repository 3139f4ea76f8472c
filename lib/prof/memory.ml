(** Flat cell-addressed memory shared by the reference interpreter and the
    machine simulator.

    The address space is split into a data segment (globals), a stack, and a
    heap.  Every scalar occupies one 8-byte cell; integer and float cells
    are stored unboxed in two parallel arrays (the typed source language
    never reads a cell at a different scalar kind than it was written, the
    same assumption the type-based alias analysis makes).

    The memory also resolves addresses to abstract memory locations (LOCs)
    for the alias profiler.  Globals and heap allocations never change
    owner during a run, so they are kept as one table of extents sorted
    by address; stack cells change owner as frames come and go and are
    kept per cell. *)

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
  mutable stack_locs : int array;      (* stack cell index -> var id, -1 none *)
  mutable obj_lo : int array;
      (* start addresses of the globals, then of the heap allocations:
         ascending, since both are laid out upwards and the heap sits
         above the data segment *)
  mutable obj_hi : int array;          (* object index -> end address *)
  mutable obj_owner : int array;       (* var id, or -2 - alloc site *)
  mutable n_obj : int;
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
  Array.fill m.stack_locs 0 m.stack_hw (-1);
  m.n_obj <- 0;
  m.sp <- stack_base;
  m.hp <- heap_base;
  Hashtbl.reset m.global_addr;
  m.hw_low <- 0;
  m.hw_heap <- heap_cell0;
  m.stack_hw <- 0

(* append the object [\[lo, hi)] owned by [owner] to the extent table *)
let add_obj m lo hi owner =
  let n = m.n_obj in
  if n = Array.length m.obj_lo then begin
    let grow a = Array.append a (Array.make n 0) in
    m.obj_lo <- grow m.obj_lo;
    m.obj_hi <- grow m.obj_hi;
    m.obj_owner <- grow m.obj_owner
  end;
  m.obj_lo.(n) <- lo;
  m.obj_hi.(n) <- hi;
  m.obj_owner.(n) <- owner;
  m.n_obj <- n + 1

(** Create a memory image with the program's globals laid out in the data
    segment.  [heap_bytes] bounds heap allocation. *)
let create ?(heap_bytes = 24 * 1024 * 1024) (p : Sir.prog) : t =
  let size = heap_base + heap_bytes in
  let cells = size / Types.cell_size in
  let stack_cells = (stack_limit - stack_base) / Types.cell_size in
  let m =
    match take_pooled size with
    | Some m -> scrub m; m
    | None ->
      { ints = Array.make cells 0;
        flts = Array.make cells 0.;
        size;
        stack_locs = Array.make stack_cells (-1);
        obj_lo = Array.make 64 0;
        obj_hi = Array.make 64 0;
        obj_owner = Array.make 64 0;
        n_obj = 0;
        sp = stack_base;
        hp = heap_base;
        global_addr = Hashtbl.create 16;
        hw_low = 0;
        hw_heap = heap_cell0;
        stack_hw = 0 }
  in
  let next = ref data_base in
  List.iter
    (fun g ->
      let v = Symtab.var p.Sir.syms g in
      Hashtbl.replace m.global_addr g !next;
      let bytes = max 1 (v.Symtab.vsize / Types.cell_size) * Types.cell_size in
      if !next + bytes > stack_base then fault "data segment overflow";
      add_obj m !next (!next + bytes) g;
      next := !next + bytes)
    p.Sir.globals;
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
  add_obj m addr m.hp (-2 - site);
  addr

(* ---- LOC resolution ---- *)

type found = {
  mutable owner : int;
  mutable lo : int;
  mutable hi : int;
}

let found () = { owner = -1; lo = 0; hi = 0 }

(** Resolve [addr] into [f]: its owner — a variable id ([>= 0]),
    [-2 - site] for a heap allocation made at [site], or [-1] — and
    [\[f.lo, f.hi)], the extent of a global or heap allocation holding
    it, or an empty range for a stack cell or an unowned address. *)
let resolve m addr f =
  if addr >= stack_base && addr < stack_limit then begin
    f.owner <- m.stack_locs.(cell (addr - stack_base));
    f.lo <- 0;
    f.hi <- 0
  end
  else begin
    (* the last object starting at or below [addr] *)
    let lo = ref 0 and hi = ref (m.n_obj - 1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      if m.obj_lo.(mid) <= addr then lo := mid + 1 else hi := mid - 1
    done;
    let i = !hi in
    if i >= 0 && addr < m.obj_hi.(i) then begin
      f.owner <- m.obj_owner.(i);
      f.lo <- m.obj_lo.(i);
      f.hi <- m.obj_hi.(i)
    end
    else begin
      f.owner <- -1;
      f.lo <- 0;
      f.hi <- 0
    end
  end

(** Resolve an address to its abstract memory location. *)
let loc_of_addr m addr : Loc.t option =
  let f = found () in
  resolve m addr f;
  if f.owner >= 0 then Some (Loc.Lvar f.owner)
  else if f.owner = -1 then None
  else Some (Loc.Lheap (-2 - f.owner))

(** Advanced Load Address Table model.

    A small set-associative table of advanced-load entries, as on
    Itanium: [ld.a] allocates an entry tagged by its destination register
    and recording the accessed address; stores look the table up by
    address and invalidate overlapping entries; [ld.c] searches by
    register tag — a surviving entry means the speculation held and the
    check costs nothing, a missing entry means the value must be
    reloaded.  Entries are also lost to capacity eviction, which the
    ALAT-size ablation experiment measures, and — under a stress plan —
    to injected interference (periodic full flushes and random
    invalidation; see {!Spec_stress.Faults}).

    Entry [i = set * assoc + way] lives in flat arrays.  At most one
    valid entry carries a given (frame, reg) tag — [insert] drops the
    old holder first.  [latest] maps each register to the entry its
    latest insert filled, so a lookup reads that entry and scans the
    table only when the entry was refilled since or the insert came from
    another frame. *)

type t = {
  n_sets : int;                  (* a power of two *)
  assoc : int;
  tag_frame : int array;         (* activation serial: models distinct
                                    physical registers under the register
                                    stack *)
  tag_reg : int array;
  addr : int array;
  valid : Bytes.t;
  mutable n_live : int;
  mutable next_victim : int;
  mutable faults : Spec_stress.Faults.injector option;
  mutable inserts : int;
  mutable store_invalidations : int;
  mutable capacity_evictions : int;
  mutable latest : int array;    (* reg -> entry of its latest insert, or -1 *)
}

let create ?(entries = 32) ?(assoc = 2) () =
  let n_sets = if assoc > 0 then entries / assoc else 0 in
  if n_sets < 1 || n_sets * assoc <> entries || n_sets land (n_sets - 1) <> 0
  then
    invalid_arg
      (Printf.sprintf
         "Alat.create: %d entries is not %d ways times a power of two"
         entries assoc);
  { n_sets; assoc;
    tag_frame = Array.make entries (-1); tag_reg = Array.make entries (-1);
    addr = Array.make entries 0; valid = Bytes.make entries '\000';
    n_live = 0; next_victim = 0; faults = None;
    inserts = 0; store_invalidations = 0; capacity_evictions = 0;
    latest = [||] }

let set_faults t inj = t.faults <- inj

let[@inline] is_valid t i = Bytes.unsafe_get t.valid i <> '\000'

let invalidate t i =
  Bytes.unsafe_set t.valid i '\000';
  t.n_live <- t.n_live - 1

(* The entry holding (frame, reg), or -1.  When [reg]'s latest insert
   filled entry [s] and [s] still carries (frame, reg), that insert was
   (frame, reg)'s latest and dropped every older holder, so [s] decides:
   it holds the tag if it is still valid, and nothing does otherwise. *)
let find t ~frame ~reg =
  if t.n_live = 0 || reg < 0 || reg >= Array.length t.latest then -1
  else begin
    let s = Array.unsafe_get t.latest reg in
    if s < 0 then -1
    else if Array.unsafe_get t.tag_reg s = reg
         && Array.unsafe_get t.tag_frame s = frame
    then (if is_valid t s then s else -1)
    else begin
      let n = Array.length t.tag_reg in
      let i = ref 0 and found = ref (-1) in
      while !found < 0 && !i < n do
        let k = !i in
        if Array.unsafe_get t.tag_reg k = reg
           && Array.unsafe_get t.tag_frame k = frame && is_valid t k
        then found := k;
        i := k + 1
      done;
      !found
    end
  end

(* Injected interference: a full flush (context switch) empties the
   table; chaos invalidation drops one uniformly chosen live entry.
   Both only remove entries, so a faulted run can at worst reload a
   value that is current in memory — semantics are preserved. *)

let flush_all t =
  for i = 0 to Array.length t.tag_reg - 1 do
    if is_valid t i then invalidate t i
  done

let invalidate_random t rng =
  if t.n_live > 0 then begin
    (* the k-th live entry in set-then-way order *)
    let k = ref (Spec_stress.Srng.below rng t.n_live) and i = ref (-1) in
    while !k >= 0 do
      incr i;
      if is_valid t !i then decr k
    done;
    invalidate t !i
  end

(** Advance injected interference to the machine clock (no-op without a
    stress plan).  Call before any table operation. *)
let interfere t ~now =
  match t.faults with
  | None -> ()
  | Some inj ->
    Spec_stress.Faults.advance inj ~upto:now
      ~flush:(fun () -> flush_all t)
      ~invalidate:(fun rng -> invalidate_random t rng)

(** Allocate an entry for an advanced load. *)
let insert t ~frame ~reg ~addr =
  if reg < 0 then invalid_arg "Alat.insert: negative register";
  t.inserts <- t.inserts + 1;
  (* an existing entry with the same register tag is replaced *)
  let old = find t ~frame ~reg in
  if old >= 0 then invalidate t old;
  let base = ((addr lsr 3) land (t.n_sets - 1)) * t.assoc in
  let w = ref 0 in
  while !w < t.assoc && is_valid t (base + !w) do incr w done;
  let victim =
    if !w < t.assoc then base + !w
    else begin
      t.capacity_evictions <- t.capacity_evictions + 1;
      let v = t.next_victim + 1 in
      t.next_victim <- (if v = t.assoc then 0 else v);
      invalidate t (base + t.next_victim);
      base + t.next_victim
    end
  in
  if reg >= Array.length t.latest then begin
    let l = Array.make (max (reg + 1) (2 * Array.length t.latest)) (-1) in
    Array.blit t.latest 0 l 0 (Array.length t.latest);
    t.latest <- l
  end;
  Array.unsafe_set t.latest reg victim;
  Array.unsafe_set t.tag_frame victim frame;
  Array.unsafe_set t.tag_reg victim reg;
  Array.unsafe_set t.addr victim addr;
  Bytes.unsafe_set t.valid victim '\001';
  t.n_live <- t.n_live + 1

(** A store to [addr] of [bytes] invalidates overlapping entries.  An
    overlapping entry starts in [(addr - cell_size, addr + bytes)], so
    only the sets of the cells that range touches are scanned; any
    [n_sets] consecutive cells already reach every set. *)
let invalidate_store t ~addr ~bytes =
  if t.n_live > 0 then begin
    let cell = Spec_ir.Types.cell_size in
    let lo = (addr - cell + 1) asr 3 in
    let hi = min ((addr + bytes - 1) asr 3) (lo + t.n_sets - 1) in
    for c = lo to hi do
      let base = (c land (t.n_sets - 1)) * t.assoc in
      for i = base to base + t.assoc - 1 do
        let a = Array.unsafe_get t.addr i in
        if is_valid t i && a < addr + bytes && addr < a + cell then begin
          invalidate t i;
          t.store_invalidations <- t.store_invalidations + 1
        end
      done
    done
  end

(** Check load: does the entry for (frame, reg) survive? *)
let check t ~frame ~reg = find t ~frame ~reg >= 0

(** Live (valid) entry count — exposed for the stress tests. *)
let live t = t.n_live

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
    invalidation; see {!Spec_stress.Faults}). *)

type entry = {
  mutable tag_frame : int;   (* activation serial: models distinct
                                physical registers under the register stack *)
  mutable tag_reg : int;
  mutable addr : int;
  mutable valid : bool;
}

type t = {
  sets : entry array array;      (* [n_sets][assoc] *)
  n_sets : int;
  assoc : int;
  mutable next_victim : int;
  (* (frame, reg) -> the entry currently holding that tag.  Kept exact:
     a mapping exists iff its entry is valid with that tag, so insert
     and check are O(1) instead of scanning the whole table. *)
  tags : (int * int, entry) Hashtbl.t;
  mutable faults : Spec_stress.Faults.injector option;
  mutable inserts : int;
  mutable store_invalidations : int;
  mutable capacity_evictions : int;
}

let create ?(entries = 32) ?(assoc = 2) () =
  let n_sets = max 1 (entries / assoc) in
  { sets =
      Array.init n_sets (fun _ ->
          Array.init assoc (fun _ ->
              { tag_frame = -1; tag_reg = -1; addr = 0; valid = false }));
    n_sets; assoc; next_victim = 0;
    tags = Hashtbl.create (max 16 (n_sets * assoc));
    faults = None;
    inserts = 0; store_invalidations = 0; capacity_evictions = 0 }

let set_faults t inj = t.faults <- inj

let set_index t addr = (addr lsr 3) land (t.n_sets - 1)

(* Drop [e]'s tag mapping if it is the current holder.  An invalid entry
   can keep stale tag fields after the same tag was re-inserted
   elsewhere, in which case the mapping belongs to the newer entry and
   must survive. *)
let untag t e =
  match Hashtbl.find_opt t.tags (e.tag_frame, e.tag_reg) with
  | Some e' when e' == e -> Hashtbl.remove t.tags (e.tag_frame, e.tag_reg)
  | _ -> ()

let invalidate_entry t e =
  if e.valid then begin
    e.valid <- false;
    untag t e
  end

(* Injected interference: a full flush (context switch) empties the
   table; chaos invalidation drops one uniformly chosen live entry.
   Both only remove entries, so a faulted run can at worst reload a
   value that is current in memory — semantics are preserved. *)

let flush_all t =
  Array.iter (fun set -> Array.iter (invalidate_entry t) set) t.sets

let invalidate_random t rng =
  let n = Hashtbl.length t.tags in
  if n > 0 then begin
    let k = Spec_stress.Srng.below rng n in
    let i = ref 0 and victim = ref None in
    Array.iter
      (fun set ->
        Array.iter
          (fun e -> if e.valid then begin
               if !i = k then victim := Some e;
               incr i
             end)
          set)
      t.sets;
    match !victim with Some e -> invalidate_entry t e | None -> ()
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
  t.inserts <- t.inserts + 1;
  (* an existing entry with the same register tag is replaced — found
     through the tag index, not a table scan *)
  (match Hashtbl.find_opt t.tags (frame, reg) with
   | Some e -> invalidate_entry t e
   | None -> ());
  let set = t.sets.(set_index t addr) in
  let victim =
    let rec find i = if i >= t.assoc then None
      else if not set.(i).valid then Some set.(i) else find (i + 1)
    in
    match find 0 with
    | Some e -> e
    | None ->
      t.capacity_evictions <- t.capacity_evictions + 1;
      t.next_victim <- (t.next_victim + 1) mod t.assoc;
      set.(t.next_victim)
  in
  invalidate_entry t victim;
  victim.tag_frame <- frame;
  victim.tag_reg <- reg;
  victim.addr <- addr;
  victim.valid <- true;
  Hashtbl.replace t.tags (frame, reg) victim

let invalidate_overlaps t set ~addr ~bytes =
  for w = 0 to t.assoc - 1 do
    let e = set.(w) in
    if e.valid && e.addr < addr + bytes
       && addr < e.addr + Spec_ir.Types.cell_size
    then begin
      invalidate_entry t e;
      t.store_invalidations <- t.store_invalidations + 1
    end
  done

(** A store to [addr] of [bytes] invalidates overlapping entries.  An
    overlapping entry starts in [(addr - cell_size, addr + bytes)], so
    only the sets of the cells that range touches are scanned; any
    [n_sets] consecutive cells already reach every set. *)
let invalidate_store t ~addr ~bytes =
  if Hashtbl.length t.tags > 0 then begin
    let lo = (addr - Spec_ir.Types.cell_size + 1) asr 3 in
    let hi = min ((addr + bytes - 1) asr 3) (lo + t.n_sets - 1) in
    for c = lo to hi do
      invalidate_overlaps t t.sets.(c land (t.n_sets - 1)) ~addr ~bytes
    done
  end

(** Check load: does the entry for (frame, reg) survive? *)
let check t ~frame ~reg = Hashtbl.mem t.tags (frame, reg)

(** Live (valid) entry count — exposed for the stress tests. *)
let live t = Hashtbl.length t.tags

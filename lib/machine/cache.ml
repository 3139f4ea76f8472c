(** Two-level data-cache model with Itanium-flavoured latencies:
    integer loads hit L1 in 2 cycles; floating-point loads bypass L1 and
    hit L2 in 9 cycles (§5.2 of the paper states both numbers); misses go
    to L2 and then memory.

    Each level is true LRU over flat arrays: line [set * ways + way]
    holds a tag and the level-wide time of its last touch, and a miss
    evicts the way with the oldest stamp.  Every way starts with a
    distinct stamp, so the order is the age permutation LRU keeps and
    the victims are the same.  Touching the way a set touched last
    leaves that order unchanged, so such a hit skips the stamp. *)

type level = {
  tags : int array;              (* [sets * ways], -1 = invalid *)
  stamps : int array;            (* last touch; larger = more recent *)
  last : int array;              (* per set: the line touched last *)
  set_mask : int;
  ways : int;
  line_bits : int;
  mutable now : int;
  mutable hits : int;
  mutable misses : int;
}

let mk_level ~size_kb ~ways ~line =
  let line_bits =
    let rec bits n = if n <= 1 then 0 else 1 + bits (n / 2) in
    bits line
  in
  let n_sets = size_kb * 1024 / line / ways in
  if n_sets < 1 || n_sets land (n_sets - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Cache.create: %d KB in %d-way sets is not a power \
                       of two sets" size_kb ways);
  (* way 0 starts most recent and way [ways - 1] least recent *)
  { tags = Array.make (n_sets * ways) (-1);
    stamps = Array.init (n_sets * ways) (fun i -> ways - 1 - (i mod ways));
    last = Array.init n_sets (fun s -> s * ways);
    set_mask = n_sets - 1; ways; line_bits; now = ways; hits = 0;
    misses = 0 }

(* Runs on every simulated load and store; allocates nothing.  A miss
   always allocates the line. *)
let[@inline] probe lvl addr =
  let line = addr lsr lvl.line_bits in
  let set = line land lvl.set_mask in
  let tags = lvl.tags in
  if Array.unsafe_get tags (Array.unsafe_get lvl.last set) = line then begin
    lvl.hits <- lvl.hits + 1;
    true
  end
  else begin
    let base = set * lvl.ways in
    let stop = base + lvl.ways in
    let i = ref base in
    while !i < stop && Array.unsafe_get tags !i <> line do incr i done;
    lvl.now <- lvl.now + 1;
    if !i < stop then begin
      lvl.hits <- lvl.hits + 1;
      Array.unsafe_set lvl.stamps !i lvl.now;
      Array.unsafe_set lvl.last set !i;
      true
    end
    else begin
      lvl.misses <- lvl.misses + 1;
      let stamps = lvl.stamps in
      let victim = ref base in
      for j = base + 1 to stop - 1 do
        if Array.unsafe_get stamps j < Array.unsafe_get stamps !victim then
          victim := j
      done;
      Array.unsafe_set tags !victim line;
      Array.unsafe_set stamps !victim lvl.now;
      Array.unsafe_set lvl.last set !victim;
      false
    end
  end

type t = {
  l1 : level;
  l2 : level;
  lat_l1 : int;
  lat_l2 : int;
  lat_mem : int;
}

let create ?(l1_kb = 16) ?(l2_kb = 256) ?(lat_l1 = 2) ?(lat_l2 = 9)
    ?(lat_mem = 120) () =
  { l1 = mk_level ~size_kb:l1_kb ~ways:4 ~line:64;
    l2 = mk_level ~size_kb:l2_kb ~ways:8 ~line:64;
    lat_l1; lat_l2; lat_mem }

(** Load latency in cycles.  Floating-point loads bypass L1. *)
let load_latency t ~fp addr =
  if fp then begin
    if probe t.l2 addr then t.lat_l2 else t.lat_mem
  end
  else if probe t.l1 addr then t.lat_l1
  else if probe t.l2 addr then t.lat_l2
  else t.lat_mem

(** Stores allocate in both levels (write-allocate, fire-and-forget). *)
let store t addr =
  ignore (probe t.l1 addr : bool);
  ignore (probe t.l2 addr : bool)

let counts t = ((t.l1.hits, t.l1.misses), (t.l2.hits, t.l2.misses))

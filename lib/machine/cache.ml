(** Two-level data-cache model with Itanium-flavoured latencies:
    integer loads hit L1 in 2 cycles; floating-point loads bypass L1 and
    hit L2 in 9 cycles (§5.2 of the paper states both numbers); misses go
    to L2 and then memory. *)

type level = {
  tags : int array array;        (* [sets][ways], -1 = invalid *)
  lru : int array array;
  n_sets : int;
  ways : int;
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
    n_sets; ways; line_bits; hits = 0; misses = 0 }

(* Runs on every simulated load and store: plain loops over the set, no
   closures or escaping refs, so a probe allocates nothing. *)
let probe lvl addr ~allocate =
  let line = addr lsr lvl.line_bits in
  let set = line mod lvl.n_sets in
  let tags = lvl.tags.(set) and lru = lvl.lru.(set) in
  let ways = lvl.ways in
  (* the last matching way, should a tag ever appear twice *)
  let hit = ref (-1) in
  for i = 0 to ways - 1 do
    if tags.(i) = line then hit := i
  done;
  let hit = !hit in
  if hit >= 0 then begin
    lvl.hits <- lvl.hits + 1;
    (* move to MRU *)
    let age = lru.(hit) in
    for i = 0 to ways - 1 do
      if lru.(i) < age then lru.(i) <- lru.(i) + 1
    done;
    lru.(hit) <- 0;
    true
  end
  else begin
    lvl.misses <- lvl.misses + 1;
    if allocate then begin
      (* evict the LRU way: the first of the oldest *)
      let victim = ref 0 in
      for i = 1 to ways - 1 do
        if lru.(i) > lru.(!victim) then victim := i
      done;
      let victim = !victim in
      tags.(victim) <- line;
      for i = 0 to ways - 1 do
        lru.(i) <- lru.(i) + 1
      done;
      lru.(victim) <- 0
    end;
    false
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
    if probe t.l2 addr ~allocate:true then t.lat_l2 else t.lat_mem
  end
  else if probe t.l1 addr ~allocate:true then t.lat_l1
  else if probe t.l2 addr ~allocate:true then t.lat_l2
  else t.lat_mem

(** Stores allocate in both levels (write-allocate, fire-and-forget). *)
let store t addr =
  ignore (probe t.l1 addr ~allocate:true : bool);
  ignore (probe t.l2 addr ~allocate:true : bool)

let counts t = ((t.l1.hits, t.l1.misses), (t.l2.hits, t.l2.misses))

(** Profile data collected by instrumented interpretation:
    edge profiles (for control speculation) and alias profiles — the LOC
    sets observed at each indirect memory reference and the mod/ref LOC
    sets of each call site (for data speculation), per §3.2.1 of the
    paper. *)

open Spec_ir

type edge_profile = {
  edges : (string * int * int, int) Hashtbl.t;   (* func, from bb, to bb *)
  entries : (string, int) Hashtbl.t;             (* function entry counts *)
}

type alias_profile = {
  ref_locs : (int, (Loc.t, int) Hashtbl.t) Hashtbl.t;
      (* iload/istore site -> LOC -> observation count *)
  ref_counts : (int, int) Hashtbl.t;      (* dynamic execution count *)
  call_mod : (int, Loc.Set.t) Hashtbl.t;  (* call site -> modified LOCs *)
  call_ref : (int, Loc.Set.t) Hashtbl.t;  (* call site -> referenced LOCs *)
}

type t = { edge : edge_profile; alias : alias_profile }

let create () =
  { edge = { edges = Hashtbl.create 256; entries = Hashtbl.create 16 };
    alias =
      { ref_locs = Hashtbl.create 256;
        ref_counts = Hashtbl.create 256;
        call_mod = Hashtbl.create 64;
        call_ref = Hashtbl.create 64 } }

(** LOC set observed at an indirect-reference site; empty if the site never
    executed during profiling. *)
let locs_at t site =
  match Hashtbl.find_opt t.alias.ref_locs site with
  | Some counts ->
    Hashtbl.fold (fun l _ acc -> Loc.Set.add l acc) counts Loc.Set.empty
  | None -> Loc.Set.empty

(** Fraction of the site's dynamic executions that touched [loc]. *)
let loc_fraction t site (loc : Loc.t) =
  let total = match Hashtbl.find_opt t.alias.ref_counts site with
    | Some n -> n | None -> 0
  in
  if total = 0 then 0.
  else
    match Hashtbl.find_opt t.alias.ref_locs site with
    | None -> 0.
    | Some counts ->
      (match Hashtbl.find_opt counts loc with
       | Some n -> float_of_int n /. float_of_int total
       | None -> 0.)

(** Fraction of [site]'s executions that touched any location in [locs] —
    the paper's "degree of likeliness" of an alias relation. *)
let overlap_fraction t site (locs : Loc.Set.t) =
  let total = match Hashtbl.find_opt t.alias.ref_counts site with
    | Some n -> n | None -> 0
  in
  if total = 0 then 0.
  else
    match Hashtbl.find_opt t.alias.ref_locs site with
    | None -> 0.
    | Some counts ->
      let hit =
        Hashtbl.fold
          (fun l n acc -> if Loc.Set.mem l locs then acc + n else acc)
          counts 0
      in
      float_of_int hit /. float_of_int total

let ref_count t site =
  match Hashtbl.find_opt t.alias.ref_counts site with
  | Some c -> c
  | None -> 0

let call_mod_locs t site =
  match Hashtbl.find_opt t.alias.call_mod site with
  | Some s -> s
  | None -> Loc.Set.empty

let call_ref_locs t site =
  match Hashtbl.find_opt t.alias.call_ref site with
  | Some s -> s
  | None -> Loc.Set.empty

let edge_count t ~func ~src ~dst =
  match Hashtbl.find_opt t.edge.edges (func, src, dst) with
  | Some c -> c
  | None -> 0

let entry_count t ~func =
  match Hashtbl.find_opt t.edge.entries func with Some c -> c | None -> 0

(** Write block execution frequencies into [bb.freq] for every function
    (entry frequency = call count; other blocks = sum of incoming edges). *)
let annotate_block_freqs t (p : Sir.prog) =
  Sir.iter_funcs
    (fun f ->
      let name = f.Sir.fname in
      Vec.iter
        (fun (b : Sir.bb) ->
          let incoming =
            List.fold_left
              (fun acc pr -> acc + edge_count t ~func:name ~src:pr ~dst:b.Sir.bid)
              0 b.Sir.preds
          in
          let freq =
            if b.Sir.bid = Sir.entry_bid then entry_count t ~func:name
            else incoming
          in
          b.Sir.freq <- float_of_int freq)
        f.Sir.fblocks)
    p

(** Profile data collected by instrumented execution: edge profiles
    (control speculation) and alias profiles — the LOC sets observed at
    each indirect memory reference with observation counts, and the
    mod/ref LOC sets of each call site (data speculation), per §3.2.1 of
    the paper.

    The types are transparent on purpose: this is the stable surface the
    persistent FDO store ({!Spec_fdo.Store}) serializes and re-populates
    when binding a stored profile to a fresh compile. *)

open Spec_ir

type edge_profile = {
  edges : (string * int * int, int) Hashtbl.t;
      (** (function, from bb, to bb) → traversal count *)
  entries : (string, int) Hashtbl.t;   (** function → entry count *)
}

type alias_profile = {
  ref_locs : (int, (Loc.t, int) Hashtbl.t) Hashtbl.t;
      (** iload/istore site → LOC → observation count *)
  ref_counts : (int, int) Hashtbl.t;   (** site → dynamic execution count *)
  call_mod : (int, Loc.Set.t) Hashtbl.t;  (** call site → modified LOCs *)
  call_ref : (int, Loc.Set.t) Hashtbl.t;  (** call site → referenced LOCs *)
}

type t = { edge : edge_profile; alias : alias_profile }

val create : unit -> t

(** Queries, consumed by the speculation-flag assignment. *)

(** LOC set observed at an indirect-reference site; empty if the site
    never executed during profiling. *)
val locs_at : t -> int -> Loc.Set.t

(** Fraction of the site's dynamic executions that touched the LOC. *)
val loc_fraction : t -> int -> Loc.t -> float

(** Fraction of the site's executions that touched any location in the
    set — the paper's "degree of likeliness" of an alias relation. *)
val overlap_fraction : t -> int -> Loc.Set.t -> float

val ref_count : t -> int -> int
val call_mod_locs : t -> int -> Loc.Set.t
val call_ref_locs : t -> int -> Loc.Set.t
val edge_count : t -> func:string -> src:int -> dst:int -> int
val entry_count : t -> func:string -> int

(** Write block execution frequencies into [bb.freq] for every function
    (entry frequency = call count; other blocks = sum of incoming
    edges). *)
val annotate_block_freqs : t -> Sir.prog -> unit

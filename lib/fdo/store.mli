(** Persistent profile store ([specprof/1]): versioned deterministic
    serialization of edge, alias and call mod/ref profiles keyed by
    stable {!Sitekey}s; commutative/associative merge with optional
    exponential decay; stale-profile matching against an edited source.
    No [Marshal]. *)

val version : string

(** Symbolic LOC: named variable (owning function, [None] for globals)
    or heap object named by its allocation call site's key. *)
type sloc =
  | Svar of string option * string
  | Sheap of Sitekey.t

val compare_sloc : sloc -> sloc -> int

type site_entry = {
  e_key : Sitekey.t;
  e_count : int;                 (** dynamic executions of the site *)
  e_locs : (sloc * int) list;    (** observed LOC → observation count *)
}

type call_entry = {
  c_key : Sitekey.t;
  c_mod : sloc list;
  c_ref : sloc list;
}

type t = {
  runs : int;                    (** train runs aggregated in this store *)
  funcs : (string * string) list;      (** function → body digest (hex) *)
  entries : (string * int) list;       (** function → entry count *)
  edges : ((string * int * int) * int) list;
  sites : site_entry list;
  calls : call_entry list;
}

(** Identity of {!merge}. *)
val empty : t

(** Sort every section by key; [write] applies it automatically. *)
val canon : t -> t

(** Extract a store from one training run; [prog] must be the freshly
    lowered program the profile was collected on. *)
val of_profile : Spec_ir.Sir.prog -> Spec_prof.Profile.t -> t

(** Commutative and associative up to canonical form; counts sum, LOC
    sets union, conflicting function digests are poisoned (their edge
    profiles drop at bind time). *)
val merge : t -> t -> t

(** Structural equality up to canonical form. *)
val equal : t -> t -> bool

(** Multiply every count by the weight (rounded to nearest); counts are
    non-increasing for weights [<= 1]. *)
val scale : float -> t -> t

(** [decay ~lambda t = scale lambda t] with [lambda] checked to lie in
    [0, 1]: down-weight old evidence before merging a fresh run. *)
val decay : lambda:float -> t -> t

val merge_weighted : wa:float -> wb:float -> t -> t -> t

(** Normalized drift between two stores' evidence, in [0, 1]: the L1
    distance over every counted record (entry, edge, site and LOC
    observation counts) divided by the mass of the pointwise maximum.
    0 for equal evidence, 1 for disjoint evidence; the compile service
    recompiles a unit when the accumulated store drifts past a
    threshold from the snapshot its current artifact was compiled
    against. *)
val distance : t -> t -> float

(** Canonical rendering; byte-identical for equal stores. *)
val write : t -> string

(** MD5 hex of {!write} — the profile component of compile-cache keys. *)
val digest : t -> string

(** Parse what {!write} emits; rejects unknown versions and records. *)
val read : string -> (t, string) result

(** Structural pinning: non-negative counts, no duplicate keys. *)
val validate : t -> (unit, string) result

(** Parse + validate (the golden-file drift check). *)
val check : string -> (unit, string) result

type match_report = {
  mr_sites : int;
  mr_sites_matched : int;
  mr_calls : int;
  mr_calls_matched : int;
  mr_locs : int;
  mr_locs_matched : int;
  mr_funcs : int;
  mr_funcs_matched : int;
  mr_edges : int;
  mr_edges_kept : int;
}

(** Fraction of reference + call sites that re-bound; 1 for an empty
    store. *)
val match_rate : match_report -> float

val report_to_string : match_report -> string

(** Re-bind a store to a freshly lowered (possibly edited) program by
    site keys.  Unmatched sites/LOCs are dropped: the bound profile has
    no evidence there, so flag assignment is conservative — a stale
    profile only forgoes speculation, never changes program output. *)
val bind : t -> Spec_ir.Sir.prog -> Spec_prof.Profile.t * match_report

(** One-line summary for [speccc profile show]. *)
val summary : t -> string

(** Write the store to a file atomically: a temp file next to it,
    renamed over it, so a crash mid-write never truncates an existing
    store. *)
val save : string -> t -> unit
val load : string -> (t, string) result

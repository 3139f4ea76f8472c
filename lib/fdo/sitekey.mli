(** Stable keys for static memory-reference and call sites: (function
    name, site kind, canonical reference shape, occurrence ordinal).
    Raw site ids shift whenever the source is edited; keys survive any
    edit that leaves the reference itself intact, which is what lets a
    persisted profile re-bind to a newer source ({!Store.bind}). *)

type t = {
  sk_func : string;                  (** enclosing function name *)
  sk_kind : Spec_ir.Sir.site_kind;   (** iload / istore / call *)
  sk_shape : string;                 (** canonical reference shape *)
  sk_ord : int;   (** occurrence ordinal within (func, kind, shape) *)
}

val compare : t -> t -> int
val equal : t -> t -> bool
val to_string : t -> string

(** Round-trippable tag for a site kind ("ld" / "st" / "call"). *)
val kind_tag : Spec_ir.Sir.site_kind -> string

(** Every site kind with its tag, for {!Textio.tag}. *)
val kind_tags : (string * Spec_ir.Sir.site_kind) array

(** Operator spellings, shared with the [specsir/2] serializer. *)
val binop_tag : Spec_ir.Sir.binop -> string
val unop_tag : Spec_ir.Sir.unop -> string

(** Canonical shape of an address expression: original variable names,
    no site or variable ids. *)
val expr_shape : Spec_ir.Symtab.t -> Spec_ir.Sir.expr -> string

(** Site-key index of a freshly lowered (unoptimized) program. *)
type index

(** Build the index: deterministic layout-order traversal, so ordinals
    are identical across recompiles of the same source. *)
val index : Spec_ir.Sir.prog -> index

val find : index -> t -> int option
val key_of_site : index -> int -> t option

(** Hex digest of the function's canonical body rendering; equal digests
    mean equal lowering (same block ids), which gates edge-profile
    rebinding. *)
val digest_of_func : index -> string -> string option

(** PRE candidate expressions and their interned keys.

    A candidate is a maximal first-order expression: an indirect load with
    a pure address, a direct load of a memory-resident variable, or (when
    arithmetic PRE is on) a maximal pure arithmetic subtree.  Loads nested
    inside other loads become candidates in a later pipeline round. *)

(** A per-function interner: deversioned expression shapes to small-int
    keys.  Equal keys = the same static expression: loads match by
    original variable, indirect loads by type and address (not site),
    unary operators by operator, binary ones by operator and type, float
    constants by their bits. *)
type t

val create : Spec_ir.Symtab.t -> arith_pre:bool -> t

(** Deversioned original-variable leaves, sorted. *)
val leaves : Spec_ir.Symtab.t -> Spec_ir.Sir.expr -> int list

(** Visit the maximal candidates of an expression in deterministic
    pre-order: [f key target candidate]. *)
val iter_candidates :
  t -> (int -> Spec_spec.Kills.target -> Spec_ir.Sir.expr -> unit) ->
  Spec_ir.Sir.expr -> unit

(** Rewrite the maximal candidates, visited in {!iter_candidates} order:
    [f key candidate] returns [Some e'] to replace it, [None] to keep
    it. *)
val rewrite_candidates :
  t -> (int -> Spec_ir.Sir.expr -> Spec_ir.Sir.expr option) ->
  Spec_ir.Sir.expr -> Spec_ir.Sir.expr

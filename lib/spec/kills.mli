(** Kill classification for PRE candidate expressions under speculation.

    For every statement crossed while an expression's value is live on the
    SSAPRE rename stack, the classifier answers: does this statement kill
    the value strongly (a real redefinition), weakly (a may-alias update
    the speculation policy deems unlikely — the paper's speculative weak
    update), or not at all?  The verdicts realize the χ/μ speculation-flag
    semantics of {!Flags} as a per-(statement, expression) query, which
    also covers heap-object aliasing through profiled LOC sets. *)

type verdict = Knone | Kweak | Kstrong

(** What kind of memory value a candidate expression denotes. *)
type target =
  | Tpure        (** no memory access: killed only by operand redefinition *)
  | Tvar of int  (** direct load of a memory-resident variable (orig id) *)
  | Tsite of int (** indirect load, by site id *)

(** Most severe of two verdicts. *)
val worst : verdict -> verdict -> verdict

type ctx

(** [create prog annot mode] builds a classification context.
    [alias_threshold] is the degree-of-likeliness knob: an alias relation
    observed in at most this fraction of a site's profiled executions is
    still treated as unlikely (0.0, the default, reproduces the paper's
    "exists during profiling" criterion).  [adversary] corrupts the
    mode-derived heap-aliasing verdicts (stress harness); it is ignored
    under [Nonspec]. *)
val create :
  ?alias_threshold:float ->
  ?adversary:Flags.perturbation ->
  Spec_ir.Sir.prog ->
  Spec_alias.Annotate.info ->
  Flags.mode ->
  ctx

(** Record the address expression of a site, for heuristic rule 1's
    identical-address-syntax test; the first registration wins. *)
val register_site_addr : ctx -> int -> Spec_ir.Sir.expr -> unit

(** Memory effect of a statement on a candidate with the given target.
    Operand (leaf) redefinitions are the caller's concern. *)
val classify : ctx -> target -> Spec_ir.Sir.stmt -> verdict

(** Effect of a statement on an operand variable (by original id): strong
    on direct redefinition or flagged χ, weak on an unflagged χ. *)
val classify_leaf : ctx -> int -> Spec_ir.Sir.stmt -> verdict

(** Kill keys index the candidates a statement can affect, so that a
    sparse Rename need not ask every statement about every candidate:
    an operand variable, an alias class (its virtual variable), split by
    whether the load has a definite target; under the profile policy the
    class's loads without profiled locations, and each profiled location;
    under the heuristic policy a class's loads with one rule-1 address
    key; and a definite target. *)
type key =
  | Kvar of int
  | Kclass of int * bool
  | Kempty of int * bool
  | Krule1 of int * bool * int
  | Kloc of Spec_ir.Loc.t
  | Kdef of Spec_ir.Loc.t

module Key_tbl : Hashtbl.S with type key = key

(** [(strong, weak)] keys of a candidate's memory value; its operand
    variables are filed under [Kvar] by the caller. *)
val target_keys : ctx -> target -> key list * key list

(** [(strong, weak)] keys of a statement.  Every candidate the statement
    can kill strongly (before any adversary acts) is filed under one of
    [strong]; every live candidate filed under one of [weak] gets a weak
    or strong verdict from it. *)
val stmt_keys : ctx -> Spec_ir.Sir.stmt -> key list * key list

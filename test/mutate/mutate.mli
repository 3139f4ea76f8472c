(** Token-level mutants of mini-C sources, for testing that every
    malformed input takes the frontend's error path. *)

(** [mutant rng src] applies one random edit to [src]: delete,
    duplicate or swap a token, splice in a copy of another token, or
    insert a stray byte.  A token is a maximal run of letters, digits,
    ['_'] and ['.'], or any other single non-blank byte. *)
val mutant : Spec_stress.Srng.t -> string -> string

(** The corpus: {!per_kernel} mutants of each workload kernel's train
    source, labelled [KERNEL/N], each drawn from the stream
    [Srng.of_path seed ["mutant"; KERNEL; N]]. *)
val corpus : seed:int -> (string * string) list

val per_kernel : int

(** Full-fidelity SIR serialization ([specsir/2]) for the compile
    cache.  [read] of [write] reconstructs the program exactly —
    variable table (including SSA versions and temporaries), sites,
    statement ids, speculation marks, check links, deoptimization
    descriptors, secret bits, block frequencies and predecessor lists —
    so a cache hit is indistinguishable from a fresh compile, down to
    pretty-printed output. *)

val version : string

(** Deterministic: equal programs serialize to byte-identical strings.
    The text starts with {!version} and ends with an [end] line. *)
val write : Spec_ir.Sir.prog -> string

(** Parse what {!write} emits; [Error] describes the first offending
    line (corrupt artifacts are treated as cache misses upstream). *)
val read : string -> (Spec_ir.Sir.prog, string) result

(** {!read} in place: parse a {!write} text that starts at the lexer's
    position and runs to the end of its input, as it does inside a
    compile-cache artifact.  Raises [Textio.Error]. *)
val read_from : Textio.lexer -> Spec_ir.Sir.prog

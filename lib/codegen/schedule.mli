(** Local (within-block) latency-weighted list scheduling for ITL.

    Register dependences are respected and memory-touching instructions
    keep their relative order, so ALAT/cache behaviour — and therefore
    every counter except cycles — is untouched.  The pass fills load-delay
    slots with independent work, the role the paper assigns to the
    scheduler downstream of speculative PRE. *)

type stats = { mutable blocks : int; mutable moved : int }

(** The latency an instruction's height counts: the machine model's L1
    case (an integer load 2, a float load 9, [ld.c] 1, a float ALU op 4,
    anything else 1). *)
val latency : Itl.insn -> int

(** Schedule every block of every function, in place.  Within a block,
    instruction i must precede j when j reads a register i last wrote
    (RAW), writes one i last wrote (WAW) or wrote after i read it (WAR),
    or when both touch memory and i is the last such before j.  Each
    pick is the ready instruction of greatest height (latency plus the
    greatest successor height), ties going to the lowest index.
    [blocks] counts the blocks of two or more instructions, [moved] the
    instructions that left their position.  Registers must be below
    their function's [mf_nregs]. *)
val run : Itl.mprog -> stats

(** Threaded-code lowering: resolved SIR to a flat bytecode array.

    Compiles {!Interp}'s resolved form one step further, into a dense
    [int array] instruction stream per function — opcode words with
    inline operand slots — executed by the tight dispatch loop in
    {!Vm}.  Lowering from [Interp.compiled] (rather than from [Sir]
    directly) means every type-resolution, slot-assignment and
    speculation-classification decision is made once, in
    {!Interp.compile}.

    Layout decisions:

    - one shared slot space per frame: the named register slots assigned
      by [Interp.compile] come first, expression temporaries are
      appended after them ([n_regs] is the total); a slot index reads
      the frame's [int] or [float] bank depending on the opcode;
    - branch targets are absolute code offsets, resolved at lowering
      time (block structure disappears);
    - [Mchk]/[Madv]/[Msa] dispatch is resolved at lowering time into
      dedicated check/arm opcodes carrying the ALAT tag inline;
    - builtin calls ([malloc]/[print_int]/[print_flt]/[seed]/[rnd]) are
      lowered to dedicated opcodes, user calls to a [CALL] with an
      inline argument-descriptor list;
    - superinstructions fuse the hot patterns: ALU ops with an immediate
      right operand, int/float [load;binop] pairs ([x + A[i]]), indirect
      stores of a sum or an immediate, and compare-and-branch
      terminators (reg/reg, reg/imm and float forms).

    Fuel is spent per *block* (statement count + terminator, one [STEPS]
    word) rather than per statement; on any run that terminates normally
    the [steps] counter is identical to the oracle's per-statement
    count, and an out-of-fuel run raises the same error.

    {!profile} lowers the same program in *profile mode*: the same
    emitter additionally writes instrumentation opcodes (function entry,
    one counter per CFG edge, a memory-reference event before every
    load and store, call-site open/close around user calls, and
    optionally a load-value observation after every load) and turns
    load/ALU fusion off so every access is a separate load.  The
    instrumentation opcodes spend no fuel and no steps, and ordinary
    lowering never emits them. *)

module I = Interp

(* ------------------------------------------------------------------ *)
(* Opcode table                                                        *)
(*                                                                     *)
(* The dispatch loop in vm.ml matches on these values as integer       *)
(* literals (OCaml compiles the dense match to a jump table), so the   *)
(* numbering here is load-bearing: keep both files in sync.  The       *)
(* differential suites catch any mismatch immediately.                 *)
(* ------------------------------------------------------------------ *)

let op_steps = 0        (* n        — steps += n; fuel -= n *)
let op_err = 1          (* s        — raise Runtime_error spool.(s) *)
let op_movi = 2         (* d i      — ints.(d) <- i *)
let op_movf = 3         (* d f      — flts.(d) <- fpool.(f) *)
let op_movr = 4         (* d a      — ints.(d) <- ints.(a) *)
let op_movrf = 5        (* d a      — flts.(d) <- flts.(a) *)
let op_ldg_i = 6        (* d g      — int load of global g *)
let op_lds_i = 7        (* d a      — int load via frame addr slot a *)
let op_ldg_f = 8        (* d g *)
let op_lds_f = 9        (* d a *)
let op_iload_i = 10     (* d a      — ints.(d) <- mem[ints.(a)] *)
let op_iload_si = 11    (* d a      — non-faulting (ld.s) variant *)
let op_iload_f = 12     (* d a *)
let op_iload_sf = 13    (* d a *)
let op_lda_g = 14       (* d g      — ints.(d) <- &global *)
let op_lda_s = 15       (* d a      — ints.(d) <- addrs.(a) *)
let op_neg = 16         (* d a *)
let op_lnot = 17        (* d a *)
let op_f2i = 18         (* d a      — ints.(d) <- int_of_float flts.(a) *)
let op_fneg = 19        (* d a *)
let op_i2f = 20         (* d a      — flts.(d) <- float_of_int ints.(a) *)
let op_of_f = 21        (* a        — raise expected-int with flts.(a) *)
let op_of_i = 22        (* a        — raise expected-float with ints.(a) *)
let op_add = 23         (* d a b *)
let op_sub = 24
let op_mul = 25
let op_div = 26
let op_rem = 27
let op_and = 28
let op_or = 29
let op_xor = 30
let op_shl = 31
let op_shr = 32
let op_addi = 33        (* d a i *)
let op_subi = 34
let op_muli = 35
let op_divi = 36
let op_remi = 37
let op_andi = 38
let op_ori = 39
let op_xori = 40
let op_shli = 41
let op_shri = 42
let op_add_ld = 43      (* d a b    — ints.(d) <- ints.(a) + mem[ints.(b)] *)
let op_sub_ld = 44
let op_mul_ld = 45
let op_fadd = 46        (* d a b *)
let op_fsub = 47
let op_fmul = 48
let op_fdiv = 49
let op_fadd_ld = 50     (* d a b    — flts.(d) <- flts.(a) +. mem[ints.(b)] *)
let op_fsub_ld = 51
let op_fmul_ld = 52
let op_cmp_lt = 53      (* d a b *)
let op_cmp_le = 54
let op_cmp_gt = 55
let op_cmp_ge = 56
let op_cmp_eq = 57
let op_cmp_ne = 58
let op_cmpi_lt = 59     (* d a i *)
let op_cmpi_le = 60
let op_cmpi_gt = 61
let op_cmpi_ge = 62
let op_cmpi_eq = 63
let op_cmpi_ne = 64
let op_fcmp_lt = 65     (* d a b    — polymorphic-compare semantics *)
let op_fcmp_le = 66
let op_fcmp_gt = 67
let op_fcmp_ge = 68
let op_fcmp_eq = 69
let op_fcmp_ne = 70
let op_stg_i = 71       (* g a      — store ints.(a) to global g *)
let op_sts_i = 72       (* s a *)
let op_stg_f = 73       (* g a *)
let op_sts_f = 74       (* s a *)
let op_ist_i = 75       (* a v      — mem[ints.(a)] <- ints.(v) *)
let op_ist_f = 76       (* a v *)
let op_ist_ii = 77      (* a i      — mem[ints.(a)] <- i *)
let op_ist_add = 78     (* a v w    — mem[ints.(a)] <- ints.(v)+ints.(w) *)
let op_ist_addi = 79    (* a v i *)
let op_chkstmt = 80     (*          — check_stmts++ (non-ld.c chk stmt) *)
let op_chk_ilod_i = 81  (* t d a    — ld.c: check ALAT, reload on miss *)
let op_chk_ilod_f = 82  (* t d a *)
let op_chk_ldg_i = 83   (* t d g *)
let op_chk_ldg_f = 84   (* t d g *)
let op_chk_lds_i = 85   (* t d s *)
let op_chk_lds_f = 86   (* t d s *)
let op_arm_try = 87     (* L        — arm address code follows; Runtime_error
                                      inside it resumes at L (ld.a semantics) *)
let op_arm = 88         (* t a      — arm ALAT (t, ints.(a)); clears the trap *)
let op_arm_g = 89       (* t g *)
let op_arm_s = 90       (* t s *)
let op_jmp = 91         (* L *)
let op_bnz = 92         (* a Lt Le *)
let op_br_lt = 93       (* a b Lt Le *)
let op_br_le = 94
let op_br_gt = 95
let op_br_ge = 96
let op_br_eq = 97
let op_br_ne = 98
let op_bri_lt = 99      (* a i Lt Le *)
let op_bri_le = 100
let op_bri_gt = 101
let op_bri_ge = 102
let op_bri_eq = 103
let op_bri_ne = 104
let op_brf_lt = 105     (* a b Lt Le *)
let op_brf_le = 106
let op_brf_gt = 107
let op_brf_ge = 108
let op_brf_eq = 109
let op_brf_ne = 110
let op_ret0 = 111       (*          — return Vint 0 *)
let op_ret_i = 112      (* a *)
let op_ret_f = 113      (* a *)
let op_malloc = 114     (* a rs rfp c *)
let op_print_i = 115    (* a rs rfp *)
let op_print_f = 116    (* a rs rfp *)
let op_seed = 117       (* a rs rfp *)
let op_rnd = 118        (* a rs rfp *)
let op_call = 119       (* fix rs rfp n enc0..enc(n-1); enc = slot*2+fp *)
let op_call_err = 120   (* s        — calls++; raise spool.(s) *)
let op_call_unknown = 121 (* s      — calls++; raise Invalid_argument *)

(* profile mode only (see [profile]); none of these spends steps *)
let op_entry = 122      (* f        — function f entered *)
let op_edge = 123       (* e L      — count CFG edge e, jump to L *)
let op_mref_g = 124     (* r w g    — reference to global g; r = reference
                                      slot (-1: direct), w = 1 for a store *)
let op_mref_s = 125     (* r w a    — via frame addr slot a *)
let op_mref_r = 126     (* r w a    — via ints.(a) *)
let op_ldv_i = 127      (* c d      — ints.(d) was just loaded, class c *)
let op_ldv_f = 128      (* c d *)
let op_cs_push = 129    (* k        — call slot k opens *)
let op_cs_pop = 130     (* k        — call slot k closes *)

let n_opcodes = 131

(* ------------------------------------------------------------------ *)
(* Program representation                                              *)
(* ------------------------------------------------------------------ *)

type func = {
  vname : string;
  vcode : int array;
  n_regs : int;                          (* slots incl. temporaries *)
  n_addr : int;
  vmem_locals : (int * int * int) array; (* (addr slot, vid, bytes) *)
  vformals : I.formal array;
  vdeopt : (int, I.cdeopt * int) Hashtbl.t;
      (* check-opcode pc -> deoptimization descriptor plus the step
         refund: the block's steps were charged up-front, so a mid-block
         deopt credits back the statements (and terminator) that will
         not execute, keeping counters and fuel identical to
         per-statement charging (slot numbering is {!Interp.compile}'s,
         which the bytecode shares) *)
}

type program = {
  vsrc : Spec_ir.Sir.prog;
  vfuncs : func array;
  vmain : int;
  fpool : float array;
  spool : string array;
}

(* what the dense ids inside profile-mode bytecode stand for *)
type layout = {
  edges : (int * int * int) array;       (* edge id -> (func ix, src, dst) *)
  ref_sites : int array;                 (* reference slot -> site *)
  call_sites : int array;                (* call slot -> call site *)
  locs : Spec_ir.Loc.t array;            (* LOC id -> LOC *)
  loc_of_vid : int array;                (* var id -> LOC id, -1 if none *)
  loc_of_heap_site : int array;          (* malloc site -> LOC id, -1 *)
  classes : string array;                (* load-reuse class id -> key *)
}

(* ------------------------------------------------------------------ *)
(* Emitter                                                             *)
(* ------------------------------------------------------------------ *)

(* dense-id interning, in first-seen order *)
type 'a interner = {
  ix : ('a, int) Hashtbl.t;
  mutable keys : 'a list;                (* reversed *)
  mutable n : int;
}

let interner () = { ix = Hashtbl.create 16; keys = []; n = 0 }

let intern it k =
  match Hashtbl.find_opt it.ix k with
  | Some i -> i
  | None ->
    let i = it.n in
    Hashtbl.replace it.ix k i;
    it.keys <- k :: it.keys;
    it.n <- i + 1;
    i

let interned it = Array.of_list (List.rev it.keys)

type pools = {
  floats : int64 interner;               (* float literals, by bits *)
  strings : string interner;             (* error messages *)
}

let fpool_ix p f = intern p.floats (Int64.bits_of_float f)
let spool_ix p s = intern p.strings s

(* profile-mode lowering state, shared by all functions of a program *)
type prof = {
  values : bool;                         (* emit load-value observations *)
  site_text : (int, string) Hashtbl.t;   (* site -> printed address *)
  mutable fix : int;                     (* function being lowered *)
  mutable fname : string;
  edge_ids : (int * int * int) interner;
  ref_slots : int interner;
  call_slots : int interner;
  heap_sites : int interner;
  classes : string interner;
}

type em = {
  mutable code : int array;
  mutable len : int;
  n_slots : int;                         (* named slots; temps follow *)
  mutable n_temps : int;                 (* high-water of temp use *)
  pools : pools;
  prof : prof option;                    (* profile mode *)
  mutable patches : (int * int) list;    (* (code pos, block id) *)
  mutable dlist : (int * (I.cdeopt * int)) list;
      (* (check-opcode pc, (descriptor, step refund)) *)
  mutable refund : int;  (* block steps after the statement being lowered *)
}

let emit em v =
  if em.len = Array.length em.code then begin
    let a = Array.make (2 * max 64 em.len) 0 in
    Array.blit em.code 0 a 0 em.len;
    em.code <- a
  end;
  em.code.(em.len) <- v;
  em.len <- em.len + 1

let e1 em op = emit em op
let e2 em op a = emit em op; emit em a
let e3 em op a b = emit em op; emit em a; emit em b
let e4 em op a b c = emit em op; emit em a; emit em b; emit em c

(* temporary slot at [depth]; temps share the frame's int/float banks *)
let tmp em depth =
  if depth + 1 > em.n_temps then em.n_temps <- depth + 1;
  em.n_slots + depth

(* branch operand referring to block [bid]; patched to an offset later *)
let blockref em bid =
  em.patches <- (em.len, bid) :: em.patches;
  emit em bid

let err em msg = e2 em op_err (spool_ix em.pools msg)

let no_slot_err em name = err em (Fmt.str "no stack slot for %s" name)

(* profile mode: the memory-reference event right before an access;
   [site] is an indirect reference's site, -1 for a direct one *)
let mref em op ~site ~store src =
  match em.prof with
  | None -> ()
  | Some p ->
    let slot = if site < 0 then -1 else intern p.ref_slots site in
    e4 em op slot (if store then 1 else 0) src

(* profile mode with values: the load just performed into [dst], in its
   load-reuse equivalence class — the variable, or the printed address
   of the site, qualified by the executing function *)
let load_value em ~fp dst (which : [ `Site of int | `Var of int ]) =
  match em.prof with
  | Some ({ values = true; _ } as p) ->
    let key =
      match which with
      | `Var vid -> p.fname ^ ":var" ^ string_of_int vid
      | `Site s ->
        (match Hashtbl.find_opt p.site_text s with
         | Some t -> p.fname ^ ":" ^ t
         | None -> p.fname ^ ":site" ^ string_of_int s)
    in
    e3 em (if fp then op_ldv_f else op_ldv_i) (intern p.classes key) dst
  | _ -> ()

let direct_load em ~fp dst (vr : I.vref) vid =
  match vr with
  | I.Rglob g ->
    mref em op_mref_g ~site:(-1) ~store:false g;
    e3 em (if fp then op_ldg_f else op_ldg_i) dst g;
    load_value em ~fp dst (`Var vid)
  | I.Rslot s ->
    mref em op_mref_s ~site:(-1) ~store:false s;
    e3 em (if fp then op_lds_f else op_lds_i) dst s;
    load_value em ~fp dst (`Var vid)
  | I.Rnone n -> no_slot_err em n

(* load through the address in slot [sa] *)
let indirect_load em ~fp ~spec dst sa ~site which =
  mref em op_mref_r ~site ~store:false sa;
  let op =
    match fp, spec with
    | false, false -> op_iload_i | false, true -> op_iload_si
    | true, false -> op_iload_f | true, true -> op_iload_sf
  in
  e3 em op dst sa;
  load_value em ~fp dst which

(* load/ALU fusion leaves no place for the profile opcodes *)
let fuses em = em.prof = None

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                 *)
(*                                                                     *)
(* [force_* em depth dst e] compiles [e] so its value lands in slot    *)
(* [dst]; temporaries at indices >= [tmp em depth] may be used, and    *)
(* [dst] is written only by the final instruction (so [i = i + 1]      *)
(* reads the old value).  Sub-expressions are evaluated left to right, *)
(* exactly as the oracle's recursion does — load counters and          *)
(* fault order are observably identical.                               *)
(* ------------------------------------------------------------------ *)

let int_alu_op = function
  | Spec_ir.Sir.Add -> op_add | Spec_ir.Sir.Sub -> op_sub
  | Spec_ir.Sir.Mul -> op_mul | Spec_ir.Sir.Div -> op_div
  | Spec_ir.Sir.Rem -> op_rem | Spec_ir.Sir.Band -> op_and
  | Spec_ir.Sir.Bor -> op_or | Spec_ir.Sir.Bxor -> op_xor
  | Spec_ir.Sir.Shl -> op_shl | Spec_ir.Sir.Shr -> op_shr
  | _ -> assert false

let cmp_base = function
  | Spec_ir.Sir.Lt -> 0 | Spec_ir.Sir.Le -> 1 | Spec_ir.Sir.Gt -> 2
  | Spec_ir.Sir.Ge -> 3 | Spec_ir.Sir.Eq -> 4 | Spec_ir.Sir.Ne -> 5
  | _ -> assert false

let rec force_i em depth dst (e : I.iexpr) =
  match e with
  | I.Iconst i -> e3 em op_movi dst i
  | I.Ireg s -> if s <> dst then e3 em op_movr dst s
  | I.Ildv { vr; vid } -> direct_load em ~fp:false dst vr vid
  | I.Iilod { a; spec; site; which } ->
    let sa = slot_i em depth a in
    indirect_load em ~fp:false ~spec dst sa ~site which
  | I.Ilda vr ->
    (match vr with
     | I.Rglob g -> e3 em op_lda_g dst g
     | I.Rslot s -> e3 em op_lda_s dst s
     | I.Rnone n -> no_slot_err em n)
  | I.Ineg x -> let s = slot_i em depth x in e3 em op_neg dst s
  | I.Ilnot x -> let s = slot_i em depth x in e3 em op_lnot dst s
  | I.If2i f -> let s = slot_f em depth f in e3 em op_f2i dst s
  | I.Ibin (op, a, b) ->
    (match op, b with
     (* superinstruction: [x op A[i]] — the load is the right operand,
        so evaluation order matches the oracle *)
     | (Spec_ir.Sir.Add | Spec_ir.Sir.Sub | Spec_ir.Sir.Mul),
       I.Iilod { a = ba; spec = false; _ } when fuses em ->
       let sa = slot_i em depth a in
       let sb = slot_i em (depth + 1) ba in
       let fused =
         match op with
         | Spec_ir.Sir.Add -> op_add_ld
         | Spec_ir.Sir.Sub -> op_sub_ld
         | _ -> op_mul_ld
       in
       e4 em fused dst sa sb
     | _, I.Iconst i ->
       let sa = slot_i em depth a in
       e4 em (int_alu_op op - op_add + op_addi) dst sa i
     | _ ->
       let sa = slot_i em depth a in
       let sb = slot_i em (depth + 1) b in
       e4 em (int_alu_op op) dst sa sb)
  | I.Icmp_i (op, a, b) ->
    (match b with
     | I.Iconst i ->
       let sa = slot_i em depth a in
       e4 em (op_cmpi_lt + cmp_base op) dst sa i
     | _ ->
       let sa = slot_i em depth a in
       let sb = slot_i em (depth + 1) b in
       e4 em (op_cmp_lt + cmp_base op) dst sa sb)
  | I.Icmp_f (op, a, b) ->
    let sa = slot_f em depth a in
    let sb = slot_f em (depth + 1) b in
    e4 em (op_fcmp_lt + cmp_base op) dst sa sb
  | I.Iof_f f -> let s = slot_f em depth f in e2 em op_of_f s

and force_f em depth dst (e : I.fexpr) =
  match e with
  | I.Fconst f -> e3 em op_movf dst (fpool_ix em.pools f)
  | I.Freg s -> if s <> dst then e3 em op_movrf dst s
  | I.Fldv { vr; vid } -> direct_load em ~fp:true dst vr vid
  | I.Filod { a; spec; site; which } ->
    let sa = slot_i em depth a in
    indirect_load em ~fp:true ~spec dst sa ~site which
  | I.Fneg x -> let s = slot_f em depth x in e3 em op_fneg dst s
  | I.Fi2f x -> let s = slot_i em depth x in e3 em op_i2f dst s
  | I.Fbin (op, a, b) ->
    (match op, b with
     | (Spec_ir.Sir.Add | Spec_ir.Sir.Sub | Spec_ir.Sir.Mul),
       I.Filod { a = ba; spec = false; _ } when fuses em ->
       let sa = slot_f em depth a in
       let sb = slot_i em (depth + 1) ba in
       let fused =
         match op with
         | Spec_ir.Sir.Add -> op_fadd_ld
         | Spec_ir.Sir.Sub -> op_fsub_ld
         | _ -> op_fmul_ld
       in
       e4 em fused dst sa sb
     | _ ->
       let sa = slot_f em depth a in
       let sb = slot_f em (depth + 1) b in
       let o =
         match op with
         | Spec_ir.Sir.Add -> op_fadd | Spec_ir.Sir.Sub -> op_fsub
         | Spec_ir.Sir.Mul -> op_fmul | Spec_ir.Sir.Div -> op_fdiv
         | _ -> assert false
       in
       e4 em o dst sa sb)
  | I.Fof_i x -> let s = slot_i em depth x in e2 em op_of_i s

(* value of [e] in *some* slot: named registers are used in place,
   anything else is forced into the temp at [depth] *)
and slot_i em depth (e : I.iexpr) : int =
  match e with
  | I.Ireg s -> s
  | _ -> let t = tmp em depth in force_i em depth t e; t

and slot_f em depth (e : I.fexpr) : int =
  match e with
  | I.Freg s -> s
  | _ -> let t = tmp em depth in force_f em depth t e; t

(* ------------------------------------------------------------------ *)
(* Statement lowering                                                  *)
(* ------------------------------------------------------------------ *)

let lower_arm em = function
  | I.Arm_none -> ()
  | I.Arm_ilod { tvid; a } ->
    (* the address is re-evaluated (side effects included); a
       Runtime_error inside it skips the arm and execution continues,
       matching the oracle's try/with *)
    e2 em op_arm_try 0;
    let patch = em.len - 1 in
    let s = slot_i em 0 a in
    e3 em op_arm tvid s;
    em.code.(patch) <- em.len
  | I.Arm_var { tvid; vr } ->
    (match vr with
     | I.Rglob g -> e3 em op_arm_g tvid g
     | I.Rslot s -> e3 em op_arm_s tvid s
     | I.Rnone n -> no_slot_err em n)

(* statements that lower to a dedicated check opcode bump [check_stmts]
   inside the opcode; any other [Mchk]-marked statement needs an
   explicit CHKSTMT first *)
let lowers_to_chk_op = function
  | I.CSchk_ilod _ -> true
  | I.CSchk_lod { vr = I.Rglob _ | I.Rslot _; _ } -> true
  | _ -> false

let lower_stmt em (s : I.cstmt) =
  match s with
  | I.CSnop -> ()
  | I.CSseti { slot; e; arm } ->
    force_i em 0 slot e;
    lower_arm em arm
  | I.CSsetf { slot; e; arm } ->
    force_f em 0 slot e;
    lower_arm em arm
  | I.CSstorev_i { vr; e } ->
    (* value first, then the address resolve — the oracle's order *)
    let v = slot_i em 0 e in
    (match vr with
     | I.Rglob g ->
       mref em op_mref_g ~site:(-1) ~store:true g; e3 em op_stg_i g v
     | I.Rslot s ->
       mref em op_mref_s ~site:(-1) ~store:true s; e3 em op_sts_i s v
     | I.Rnone n -> no_slot_err em n)
  | I.CSstorev_f { vr; e } ->
    let v = slot_f em 0 e in
    (match vr with
     | I.Rglob g ->
       mref em op_mref_g ~site:(-1) ~store:true g; e3 em op_stg_f g v
     | I.Rslot s ->
       mref em op_mref_s ~site:(-1) ~store:true s; e3 em op_sts_f s v
     | I.Rnone n -> no_slot_err em n)
  | I.CSchk_ilod { tvid; slot; fp; a; dd; _ } ->
    let sa = slot_i em 0 a in
    (match dd with
     | Some d -> em.dlist <- (em.len, (d, em.refund)) :: em.dlist
     | None -> ());
    e4 em (if fp then op_chk_ilod_f else op_chk_ilod_i) tvid slot sa
  | I.CSchk_lod { tvid; slot; fp; vr; dd } ->
    let record () =
      match dd with
      | Some d -> em.dlist <- (em.len, (d, em.refund)) :: em.dlist
      | None -> ()
    in
    (match vr with
     | I.Rglob g ->
       record ();
       e4 em (if fp then op_chk_ldg_f else op_chk_ldg_i) tvid slot g
     | I.Rslot s ->
       record ();
       e4 em (if fp then op_chk_lds_f else op_chk_lds_i) tvid slot s
     | I.Rnone n -> e1 em op_chkstmt; no_slot_err em n)
  | I.CSistr_i { a; e; site } ->
    (* the store's operands are all evaluated before its reference
       event, so store fusion survives profile mode *)
    let sa = slot_i em 0 a in
    let store () = mref em op_mref_r ~site ~store:true sa in
    (match e with
     | I.Iconst i -> store (); e3 em op_ist_ii sa i
     | I.Ibin (Spec_ir.Sir.Add, x, I.Iconst i) ->
       let sx = slot_i em 1 x in
       store ();
       e4 em op_ist_addi sa sx i
     | I.Ibin (Spec_ir.Sir.Add, x, y) ->
       let sx = slot_i em 1 x in
       let sy = slot_i em 2 y in
       store ();
       e4 em op_ist_add sa sx sy
     | _ ->
       let v = slot_i em 1 e in
       store ();
       e3 em op_ist_i sa v)
  | I.CSistr_f { a; e; site } ->
    let sa = slot_i em 0 a in
    let v = slot_f em 1 e in
    mref em op_mref_r ~site ~store:true sa;
    e3 em op_ist_f sa v
  | I.CScall { target; args; ret_slot; ret_fp; csite } ->
    let rfp = if ret_fp then 1 else 0 in
    let builtin_arg () =
      (* builtins take one int argument by construction; a wrongly typed
         arg is not evaluated and the value is 0 *)
      match args.(0) with
      | I.Ai a -> slot_i em 0 a
      | I.Af _ -> let t = tmp em 0 in e3 em op_movi t 0; t
    in
    (match target with
     | I.Tmalloc ->
       let a = builtin_arg () in
       (match em.prof with
        | Some p -> ignore (intern p.heap_sites csite : int)
        | None -> ());
       emit em op_malloc; emit em a; emit em ret_slot; emit em rfp;
       emit em csite
     | I.Tprint_int ->
       let a = builtin_arg () in
       e4 em op_print_i a ret_slot rfp
     | I.Tprint_flt ->
       let a =
         match args.(0) with
         | I.Af f -> slot_f em 0 f
         | I.Ai _ ->
           let t = tmp em 0 in
           e3 em op_movf t (fpool_ix em.pools 0.); t
       in
       e4 em op_print_f a ret_slot rfp
     | I.Tseed ->
       let a = builtin_arg () in
       e4 em op_seed a ret_slot rfp
     | I.Trnd ->
       let a = builtin_arg () in
       e4 em op_rnd a ret_slot rfp
     | I.Tuser ix ->
       let n = Array.length args in
       (* argument k lands in temp k; its own evaluation scratch lives
          above the temps still holding earlier arguments *)
       let encs =
         Array.mapi
           (fun k a ->
             let t = tmp em k in
             match a with
             | I.Ai e -> force_i em (k + 1) t e; t * 2
             | I.Af e -> force_f em (k + 1) t e; (t * 2) + 1)
           args
       in
       (* profile mode: the call site is open exactly while the callee
          runs (arguments are already evaluated) *)
       let slot =
         match em.prof with
         | Some p -> intern p.call_slots csite
         | None -> -1
       in
       if slot >= 0 then e2 em op_cs_push slot;
       emit em op_call; emit em ix; emit em ret_slot; emit em rfp;
       emit em n;
       Array.iter (emit em) encs;
       if slot >= 0 then e2 em op_cs_pop slot
     | I.Tunknown name ->
       Array.iter
         (fun a ->
           let t = tmp em 0 in
           match a with
           | I.Ai e -> force_i em 1 t e
           | I.Af e -> force_f em 1 t e)
         args;
       e2 em op_call_unknown
         (spool_ix em.pools ("Sir.find_func: no function " ^ name)))
  | I.CSerr { args; msg } ->
    Array.iter
      (fun a ->
        let t = tmp em 0 in
        match a with
        | I.Ai e -> force_i em 1 t e
        | I.Af e -> force_f em 1 t e)
      args;
    e2 em op_call_err (spool_ix em.pools msg)

(* profile mode: count edge [src -> dst] and jump to [dst] *)
let counted_jump em p ~src dst =
  emit em op_edge;
  emit em (intern p.edge_ids (p.fix, src, dst));
  blockref em dst

(* a conditional branch's two target operands; in profile mode each
   targets a stub right after the branch that counts its edge *)
let branch_arms em ~bid bt be =
  match em.prof with
  | None -> blockref em bt; blockref em be
  | Some p ->
    let pos = em.len in
    emit em 0; emit em 0;
    em.code.(pos) <- em.len;
    counted_jump em p ~src:bid bt;
    em.code.(pos + 1) <- em.len;
    counted_jump em p ~src:bid be

let lower_term em ~bid (t : I.cterm) =
  let arms = branch_arms em ~bid in
  match t with
  | I.CTgoto b ->
    (match em.prof with
     | None -> emit em op_jmp; blockref em b
     | Some p -> counted_jump em p ~src:bid b)
  | I.CTcond (c, bt, be) ->
    (match c with
     | I.Icmp_i (op, a, I.Iconst i) ->
       let sa = slot_i em 0 a in
       emit em (op_bri_lt + cmp_base op); emit em sa; emit em i;
       arms bt be
     | I.Icmp_i (op, a, b) ->
       let sa = slot_i em 0 a in
       let sb = slot_i em 1 b in
       emit em (op_br_lt + cmp_base op); emit em sa; emit em sb;
       arms bt be
     | I.Icmp_f (op, a, b) ->
       let sa = slot_f em 0 a in
       let sb = slot_f em 1 b in
       emit em (op_brf_lt + cmp_base op); emit em sa; emit em sb;
       arms bt be
     | _ ->
       let s = slot_i em 0 c in
       emit em op_bnz; emit em s; arms bt be)
  | I.CTret_none -> e1 em op_ret0
  | I.CTret (I.Ai e) -> let s = slot_i em 0 e in e2 em op_ret_i s
  | I.CTret (I.Af e) -> let s = slot_f em 0 e in e2 em op_ret_f s

let lower_func ?prof pools (cf : I.cfunc) : func =
  let em = { code = Array.make 256 0; len = 0; n_slots = cf.I.n_slots;
             n_temps = 0; pools; prof; patches = []; dlist = [];
             refund = 0 } in
  (* profile mode: the entry counter precedes block 0, so a loop back to
     the entry block does not count as an entry *)
  (match prof with Some p -> e2 em op_entry p.fix | None -> ());
  let n = Array.length cf.I.cblocks in
  let offsets = Array.make n 0 in
  for bid = 0 to n - 1 do
    offsets.(bid) <- em.len;
    let b = cf.I.cblocks.(bid) in
    if b.I.cb_phis then
      err em "interpreter cannot execute SSA-form code (phis present)"
    else begin
      let stmts = b.I.cb_stmts in
      if prof <> None && Array.exists Fun.id b.I.cb_chk then
        invalid_arg
          ("Vmcode.profile: check statement in " ^ cf.I.cname
           ^ " (profile mode takes unspeculated code)");
      e2 em op_steps (Array.length stmts + 1);
      Array.iteri
        (fun k s ->
          em.refund <- Array.length stmts - k;
          if b.I.cb_chk.(k) && not (lowers_to_chk_op s) then
            e1 em op_chkstmt;
          lower_stmt em s)
        stmts;
      lower_term em ~bid b.I.cb_term
    end
  done;
  List.iter (fun (pos, bid) -> em.code.(pos) <- offsets.(bid)) em.patches;
  let vdeopt = Hashtbl.create (max 1 (List.length em.dlist)) in
  List.iter (fun (pc, d) -> Hashtbl.replace vdeopt pc d) em.dlist;
  { vname = cf.I.cname;
    vcode = Array.sub em.code 0 em.len;
    n_regs = cf.I.n_slots + em.n_temps;
    n_addr = cf.I.n_addr;
    vmem_locals = cf.I.mem_locals;
    vformals = cf.I.formals;
    vdeopt }

let new_pools () = { floats = interner (); strings = interner () }

let assemble (comp : I.compiled) pools vfuncs : program =
  { vsrc = comp.I.cprog;
    vfuncs;
    vmain = comp.I.main_ix;
    fpool = Array.map Int64.float_of_bits (interned pools.floats);
    spool = interned pools.strings }

(** Lower an already resolved program. *)
let of_compiled (comp : I.compiled) : program =
  let pools = new_pools () in
  assemble comp pools (Array.map (lower_func pools) comp.I.cfuncs)

(** Compile a whole (non-SSA) program to bytecode: {!Interp.compile}'s
    resolution pass followed by flattening.  Still cheap relative to any
    execution. *)
let compile (p : Spec_ir.Sir.prog) : program = of_compiled (I.compile p)

(* printed address of the first [Ilod] carrying each site, in program
   order: the load-reuse class of an indirect load *)
let site_texts (p : Spec_ir.Sir.prog) =
  let module Sir = Spec_ir.Sir in
  let tbl = Hashtbl.create 64 in
  let scan e =
    Sir.iter_subexprs
      (function
        | Sir.Ilod (_, a, s) when not (Hashtbl.mem tbl s) ->
          Hashtbl.replace tbl s (Spec_ir.Pp.expr_to_string p.Sir.syms a)
        | _ -> ())
      e
  in
  Sir.iter_funcs
    (fun f ->
      Spec_ir.Vec.iter
        (fun (b : Sir.bb) ->
          List.iter (fun st -> List.iter scan (Sir.stmt_exprs st.Sir.kind))
            b.Sir.stmts;
          List.iter scan (Sir.term_exprs b.Sir.term))
        f.Sir.fblocks)
    p;
  tbl

(* LOC ids: every variable the memory image can name (globals, then
   memory-resident locals and formals), then every allocation site *)
let loc_table (p : Spec_ir.Sir.prog) (vfuncs : func array) heap_sites =
  let nsyms = Spec_ir.Symtab.count p.Spec_ir.Sir.syms in
  let loc_of_vid = Array.make nsyms (-1) in
  let locs = ref [] and n = ref 0 in
  let add_var v =
    if loc_of_vid.(v) < 0 then begin
      loc_of_vid.(v) <- !n;
      locs := Spec_ir.Loc.Lvar v :: !locs;
      incr n
    end
  in
  List.iter add_var p.Spec_ir.Sir.globals;
  Array.iter
    (fun vf ->
      Array.iter (fun (_, vid, _) -> add_var vid) vf.vmem_locals;
      Array.iter
        (function I.Fm_mem { vid; _ } -> add_var vid | I.Fm_reg _ -> ())
        vf.vformals)
    vfuncs;
  let max_site = Array.fold_left max (-1) heap_sites in
  let loc_of_heap_site = Array.make (max_site + 1) (-1) in
  Array.iter
    (fun s ->
      loc_of_heap_site.(s) <- !n;
      locs := Spec_ir.Loc.Lheap s :: !locs;
      incr n)
    heap_sites;
  (Array.of_list (List.rev !locs), loc_of_vid, loc_of_heap_site)

(** Profile-mode lowering of a fresh (unspeculated) program, with the
    layout its dense ids index. *)
let profile ?(values = false) (p : Spec_ir.Sir.prog) : program * layout =
  let comp = I.compile p in
  let prof =
    { values;
      site_text = (if values then site_texts p else Hashtbl.create 1);
      fix = 0; fname = "";
      edge_ids = interner (); ref_slots = interner ();
      call_slots = interner (); heap_sites = interner ();
      classes = interner () }
  in
  let pools = new_pools () in
  let vfuncs =
    Array.mapi
      (fun fix (cf : I.cfunc) ->
        prof.fix <- fix;
        prof.fname <- cf.I.cname;
        lower_func ~prof pools cf)
      comp.I.cfuncs
  in
  let locs, loc_of_vid, loc_of_heap_site =
    loc_table p vfuncs (interned prof.heap_sites)
  in
  ( assemble comp pools vfuncs,
    { edges = interned prof.edge_ids;
      ref_sites = interned prof.ref_slots;
      call_sites = interned prof.call_slots;
      locs; loc_of_vid; loc_of_heap_site;
      classes = interned prof.classes } )


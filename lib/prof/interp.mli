(** The resolved form of SIR and the result types shared by the
    executors.

    {!compile} resolves a program once, ahead of execution:
    register-resident variables get dense per-frame slots, memory-resident
    locals get dense address slots, symbol-table and type dispatch are
    resolved, and statement dispatch (check-load vs plain assign,
    advanced-load arming, builtin vs user call) is decided.

    This module executes nothing.  The resolved form is the input of the
    bytecode lowerer ({!Vmcode}): the vm ({!Vm}) inherits every
    type-resolution and speculation-classification decision made here.
    {!Vm} and the semantic oracle ({!Interp_ref}) both report through
    {!result} and {!counters}; the differential suites in
    [test/test_engines.ml] and [test/test_fuzz.ml] hold the vm to the
    oracle's output, return value and counters for every workload under
    every pipeline variant and fault plan. *)

open Spec_ir

type value = Vint of int | Vflt of float

exception Runtime_error of string

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
val as_int : value -> int
val as_flt : value -> float

type counters = {
  mutable steps : int;
  mutable mem_loads : int;
  mutable mem_stores : int;
  mutable branches : int;
  mutable calls : int;
  mutable check_stmts : int;
      (** executions of ld.c-marked statements; their reloads are counted
          in [mem_loads] too, but cost nothing on the machine when the
          ALAT check succeeds *)
  mutable check_reloads : int;
      (** ld.c executions whose ALAT entry was gone (a real intervening
          alias, or injected interference) and had to reload *)
  mutable deopts : int;
      (** failed checks recovered by deoptimization instead of reload
          (only under [?recover]) *)
}

type result = {
  ret : value;
  output : string;
  counters : counters;
}

(** {1 Compiled representation} *)

(** Resolved reference to a memory-resident variable's address. *)
type vref =
  | Rglob of int          (* original vid; address via the globals table *)
  | Rslot of int          (* frame address-slot of a memory-resident local *)
  | Rnone of string       (* no stack slot: runtime error with var name *)

(** Int-typed and float-typed compiled expressions.  Type mismatches the
    tree-walking oracle would discover dynamically ([as_int] on a float)
    are compiled into [Iof_f]/[Fof_i] nodes that evaluate the wrongly
    typed subtree and raise the same [Runtime_error]. *)
type iexpr =
  | Iconst of int
  | Ireg of int                                  (* register slot *)
  | Ildv of { vr : vref; vid : int }             (* direct load, int mem var *)
  | Iilod of { a : iexpr; site : int; spec : bool;
               which : [ `Site of int | `Var of int ] }
  | Ilda of vref
  | Ineg of iexpr
  | Ilnot of iexpr
  | If2i of fexpr
  | Ibin of Sir.binop * iexpr * iexpr            (* int arithmetic *)
  | Icmp_i of Sir.binop * iexpr * iexpr
  | Icmp_f of Sir.binop * fexpr * fexpr
  | Iof_f of fexpr                               (* as_int of a float value *)

and fexpr =
  | Fconst of float
  | Freg of int
  | Fldv of { vr : vref; vid : int }             (* direct load, fp mem var *)
  | Filod of { a : iexpr; site : int; spec : bool;
               which : [ `Site of int | `Var of int ] }
  | Fneg of fexpr
  | Fi2f of iexpr
  | Fbin of Sir.binop * fexpr * fexpr            (* fp add/sub/mul/div *)
  | Fof_i of iexpr                               (* as_flt of an int value *)

(** Either-typed expression, for call arguments and return expressions. *)
type aexpr = Ai of iexpr | Af of fexpr

(** Advanced-load (ld.a / ld.sa) ALAT arming, resolved at compile time. *)
type arm =
  | Arm_none
  | Arm_ilod of { tvid : int; a : iexpr }   (* re-evaluates the address *)
  | Arm_var of { tvid : int; vr : vref }

(** A check statement's deoptimization descriptor, resolved against the
    function's register slots. *)
type cdeopt = {
  d_sid : int;                        (* lowering-era target statement id *)
  d_vars : (int * int * bool) array;  (* (orig vid, register slot, is_fp) *)
}

type cstmt =
  | CSnop
  | CSseti of { slot : int; e : iexpr; arm : arm }
  | CSsetf of { slot : int; e : fexpr; arm : arm }
  | CSstorev_i of { vr : vref; e : iexpr }   (* direct store to int mem var *)
  | CSstorev_f of { vr : vref; e : fexpr }
  | CSchk_ilod of { tvid : int; slot : int; fp : bool; a : iexpr; site : int;
                    which : [ `Site of int | `Var of int ];
                    dd : cdeopt option }
  | CSchk_lod of { tvid : int; slot : int; fp : bool; vr : vref;
                   dd : cdeopt option }
  | CSistr_i of { a : iexpr; e : iexpr; site : int }
  | CSistr_f of { a : iexpr; e : fexpr; site : int }
  | CScall of { target : ctarget; args : aexpr array;
                ret_slot : int; ret_fp : bool; csite : int }
  | CSerr of { args : aexpr array; msg : string }
      (* ill-formed builtin call: evaluate args, count the call, raise *)

and ctarget =
  | Tmalloc | Tprint_int | Tprint_flt | Tseed | Trnd
  | Tuser of int                        (* index into compiled functions *)
  | Tunknown of string                  (* Sir.find_func failure, deferred *)

type cterm =
  | CTgoto of int
  | CTcond of iexpr * int * int
  | CTret_none
  | CTret of aexpr

type cblock = {
  cb_phis : bool;                       (* phis present: error if executed *)
  cb_stmts : cstmt array;
  cb_chk : bool array;                  (* per-stmt: counts as check stmt *)
  cb_term : cterm;
}

type formal =
  | Fm_reg of { slot : int; fp : bool }
  | Fm_mem of { aslot : int; vid : int; bytes : int; fp : bool }

type cfunc = {
  cname : string;
  cblocks : cblock array;
  n_slots : int;
  n_addr : int;
  mem_locals : (int * int * int) array; (* (addr slot, vid, bytes) *)
  formals : formal array;
}

type compiled = {
  cprog : Sir.prog;
  cfuncs : cfunc array;
  main_ix : int;
}

(** Compile a whole (non-SSA) program.  Cheap relative to any execution:
    one pass over the statements. *)
val compile : Sir.prog -> compiled

(** ITL machine simulation: one functional walk over flat code
    ({!Mcode}) under one of two timing models.

    The walk executes every instruction once — memory, the ALAT, fault
    interference, calls, frames and output — and reports one timing
    event per instruction class to the core the run selected:

    - the in-order EPIC core, the paper's evaluation machine: single
      issue up to [issue_width] slots a cycle, scoreboarded non-blocking
      loads (an instruction stalls only on a source that is not ready),
      the two-level {!Cache}, the {!Alat} and register-stack spill
      cycles;
    - the out-of-order core, a modern control: dispatch into a
      [rob_entries] window, greedy issue ports, in-order
      [retire_width]-wide retirement that counts as [data_cycles] only
      the load latency the window failed to hide, a store queue whose
      loads may issue past unresolved stores and replay on a violation
      ([lsq_replays]), a store-set or last-violator memory-dependence
      predictor, and a 2-bit branch predictor with checkpoint-restore
      redirects.  Renaming absorbs register-stack spills; an injected
      ALAT flush also drains the store queue and resets the predictor
      ([mdp_poisons]).

    Each event branches on the core once.  The hottest hooks (in-order
    issue; OoO dispatch, retire and port choice) live in this
    compilation unit so they inline into the events: the library builds
    without cross-module inlining.  Absolute cycle counts are not meant
    to match Itanium hardware; the mechanisms are faithful, so relative
    effects — the paper's metrics — carry over. *)

open Spec_ir
open Spec_prof
include Backend

type rprog = Mcode.program

let resolve = Mcode.lower

type backend = kind

let all_backends = all_kinds
let backend_name = kind_name
let backend_of_string = kind_of_string

(* unchecked array access: register operands were checked against
   their frame by {!Mcode.lower}, like the vm's slots *)
let[@inline] ( .%() ) (a : int array) i = Array.unsafe_get a i
let[@inline] ( .%()<- ) (a : int array) i (v : int) = Array.unsafe_set a i v
let[@inline] ( .%{} ) (a : float array) i = Array.unsafe_get a i

let[@inline] ( .%{}<- ) (a : float array) i (v : float) =
  Array.unsafe_set a i v

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type state = {
  prog : rprog;
  mem : Memory.t;
  cache : Cache.t;
  alat : Alat.t;
  faults : Spec_stress.Faults.injector option;
  cfg : config;
  ctrs : counters;
  out : Buffer.t;
  globals : int array;             (* global vid -> address, -1 if absent *)
  ooo : bool;                      (* the timing model of this run *)
  fuel : int;
  mutable rng : int;
  mutable frame_serial : int;
  mutable stacked_regs : int;
  (* return registers, callee to caller *)
  mutable ret_i : int;
  ret_f : float array;             (* one unboxed cell *)
  mutable ret_ready : int;         (* OoO: when the returned value is ready *)
  (* in-order core *)
  mutable clock : int;
  mutable slot : int;              (* issue slots used in cycle [clock] *)
  (* OoO front end *)
  mutable fclock : int;            (* dispatch cycle of the next insn *)
  mutable fslot : int;             (* insns dispatched in cycle [fclock] *)
  mutable seq : int;               (* next dynamic sequence number *)
  (* OoO ROB: ring of retirement times *)
  retq : int array;
  mutable rob_slot : int;          (* (seq - 1) mod rob_entries *)
  mutable last_retire : int;
  alu_free : int array;            (* next free cycle per port *)
  mem_free : int array;
  (* OoO store queue: a ring of [Array.length stq_addr] entries *)
  stq_addr : int array;
  stq_site : int array;
  stq_addr_ready : int array;      (* cycle the address is known *)
  stq_data_ready : int array;      (* cycle the data can forward *)
  mutable stq_n : int;             (* stores pushed *)
  mutable stq_head : int;          (* stq_n mod capacity *)
  mutable stq_base : int;          (* stores below this were drained *)
  stq_bucket : int array;          (* in-window stores per address bucket *)
  (* OoO predictors; load/store tables are indexed by dense site id *)
  bp : Bytes.t;                    (* 2-bit branch counters *)
  pred : int array;                (* lv, ss_load, or all -1 (no mdp) *)
  store_set : bool;
  lv : int array;                  (* load -> last violating store *)
  ss_load : int array;             (* load -> store set *)
  ss_store : int array;            (* store -> store set *)
  mutable ss_next : int;
  mutable flush_seen : int;
}

let no_ints : int array = [||]
let no_flts : float array = [||]
let no_bytes = Bytes.empty

let out_of_fuel () = error "machine out of fuel"

(* Count an instruction; the run is out of fuel once [fuel] have
   retired. *)
let[@inline] charge st =
  let c = st.ctrs in
  let n = c.insns + 1 in
  c.insns <- n;
  if n >= st.fuel then out_of_fuel ()

(* ---- memory fast paths, as in {!Vm}: out-of-range traffic falls back
   to the checked accessors, which raise (or, for ld.s, absorb) the
   same faults ---- *)

let data_base = Memory.data_base

let[@inline] in_range (m : Memory.t) addr =
  addr >= data_base && addr <= m.Memory.size - 8 && addr land 7 = 0

let[@inline] ld_i m addr =
  if in_range m addr then Array.unsafe_get m.Memory.ints (addr lsr 3)
  else Memory.load_int m addr

let[@inline] ld_f m addr =
  if in_range m addr then Array.unsafe_get m.Memory.flts (addr lsr 3)
  else Memory.load_flt m addr

let[@inline] ld_i_spec m addr =
  if in_range m addr then Array.unsafe_get m.Memory.ints (addr lsr 3)
  else Memory.load_int_spec m addr

let[@inline] ld_f_spec m addr =
  if in_range m addr then Array.unsafe_get m.Memory.flts (addr lsr 3)
  else Memory.load_flt_spec m addr

let[@inline] touch (m : Memory.t) c =
  if c >= Memory.heap_cell0 then begin
    if c >= m.Memory.hw_heap then m.Memory.hw_heap <- c + 1
  end
  else if c >= m.Memory.hw_low then m.Memory.hw_low <- c + 1

let[@inline] st_i m addr v =
  if in_range m addr then begin
    let c = addr lsr 3 in
    touch m c;
    Array.unsafe_set m.Memory.ints c v
  end
  else Memory.store_int m addr v

let[@inline] st_f m addr v =
  if in_range m addr then begin
    let c = addr lsr 3 in
    touch m c;
    Array.unsafe_set m.Memory.flts c v
  end
  else Memory.store_flt m addr v

let[@inline] load_reg m ints flts d addr fp spec =
  if fp then flts.%{d} <- (if spec then ld_f_spec m addr else ld_f m addr)
  else ints.%(d) <- (if spec then ld_i_spec m addr else ld_i m addr)

(* ------------------------------------------------------------------ *)
(* In-order hooks: scoreboarded issue                                  *)
(* ------------------------------------------------------------------ *)

let[@inline] advance_slot st =
  let s = st.slot + 1 in
  if s >= st.cfg.issue_width then begin
    st.slot <- 0;
    st.clock <- st.clock + 1
  end
  else st.slot <- s

let[@inline] from_load pl r = Bytes.unsafe_get pl r <> '\000'

(* Issue after the source is ready; returns the issue cycle.  A stall is
   data-access time when a load produced the source. *)
let[@inline] issue1 st ready pl s =
  charge st;
  let clock = st.clock in
  let r = ready.%(s) in
  if r > clock then begin
    if from_load pl s then
      st.ctrs.data_cycles <- st.ctrs.data_cycles + (r - clock);
    st.clock <- r;
    st.slot <- 0
  end;
  let start = st.clock in
  advance_slot st;
  start

let[@inline] issue2 st ready pl a b =
  charge st;
  let clock = st.clock in
  let r1 = ready.%(a) and r2 = ready.%(b) in
  let r = if r1 > r2 then r1 else r2 in
  if r > clock then begin
    if (from_load pl a && r1 > clock) || (from_load pl b && r2 > clock) then
      st.ctrs.data_cycles <- st.ctrs.data_cycles + (r - clock);
    st.clock <- r;
    st.slot <- 0
  end;
  let start = st.clock in
  advance_slot st;
  start

let[@inline] set_dst ready pl d t is_load =
  ready.%(d) <- t;
  Bytes.unsafe_set pl d (if is_load then '\001' else '\000')

(* Register-stack overflow: spilling the excess costs 2 cycles a
   register. *)
let rse_spill st n =
  let spill = min n (st.stacked_regs - st.cfg.physical_stacked_regs) in
  st.ctrs.rse_stall_cycles <- st.ctrs.rse_stall_cycles + (2 * spill);
  st.clock <- st.clock + (2 * spill)

(* ------------------------------------------------------------------ *)
(* OoO hooks: dispatch, retire, ports                                  *)
(* ------------------------------------------------------------------ *)

(* Dispatch the next dynamic instruction: charge it, stall the front
   end while the ROB slot it reuses has not retired, take a fetch slot.
   Returns the dispatch cycle. *)
let[@inline] dispatch st =
  charge st;
  let s = st.seq in
  st.seq <- s + 1;
  let n = Array.length st.retq in
  let slot = if s = 0 || st.rob_slot + 1 = n then 0 else st.rob_slot + 1 in
  st.rob_slot <- slot;
  if s >= n then begin
    let r = st.retq.%(slot) in
    if r > st.fclock then begin
      st.fclock <- r;
      st.fslot <- 0
    end
  end;
  let t = st.fclock in
  let f = st.fslot + 1 in
  if f >= st.cfg.fetch_width then begin
    st.fslot <- 0;
    st.fclock <- t + 1
  end
  else st.fslot <- f;
  t

(* In-order, [retire_width]-wide retirement of the instruction just
   dispatched.  [data_cycles] counts only the latency a load still
   exposes at the retirement point. *)
let[@inline] retire st complete is_load =
  let s = st.seq - 1 in
  let retq = st.retq in
  let n = Array.length retq in
  let slot = st.rob_slot in
  (* retirement times never decrease: the previous one is the latest *)
  let prev = st.last_retire in
  let w = st.cfg.retire_width in
  let wprev =
    if s >= w then begin
      let k = slot - w in
      retq.%(if k >= 0 then k else if k >= -n then k + n else (s - w) mod n)
      + 1
    end
    else 0
  in
  let floor_ = if prev > wprev then prev else wprev in
  if is_load && complete > floor_ then
    st.ctrs.data_cycles <- st.ctrs.data_cycles + (complete - floor_);
  let r = if complete > floor_ then complete else floor_ in
  retq.%(slot) <- r;
  st.last_retire <- r

(* Greedy issue: the earliest-free port, busy for one cycle. *)
let[@inline] port ports ready =
  let k = ref 0 in
  for i = 1 to Array.length ports - 1 do
    if ports.%(i) < ports.%(!k) then k := i
  done;
  let p = ports.%(!k) in
  let t = if ready > p then ready else p in
  ports.%(!k) <- t + 1;
  t

let[@inline] rdy1 ready t r = let v = ready.%(r) in if v > t then v else t

(* ---- OoO fault mapping: an ALAT flush drains the store queue and
   resets the memory-dependence predictor ---- *)

let poll_faults st =
  match st.faults with
  | None -> ()
  | Some inj ->
    let f = Spec_stress.Faults.flushes inj in
    if f > st.flush_seen then begin
      st.ctrs.mdp_poisons <- st.ctrs.mdp_poisons + (f - st.flush_seen);
      st.flush_seen <- f;
      st.stq_base <- st.stq_n;
      Array.fill st.stq_bucket 0 (Array.length st.stq_bucket) 0;
      Array.fill st.lv 0 (Array.length st.lv) (-1);
      Array.fill st.ss_load 0 (Array.length st.ss_load) (-1);
      Array.fill st.ss_store 0 (Array.length st.ss_store) (-1)
    end

(* Injected interference happens at cycle [now] of the selected core. *)
let[@inline] interfere st now =
  match st.faults with
  | None -> ()
  | Some _ ->
    Alat.interfere st.alat ~now;
    if st.ooo then poll_faults st

(* ---- OoO store queue and memory-dependence prediction ---- *)

let[@inline] bucket addr = (addr lsr 3) land 63

let push_store st addr site addr_ready data_ready =
  let h = st.stq_head in
  let cap = Array.length st.stq_addr in
  (* the entry overwritten leaves the window, if it was still in it *)
  let old = st.stq_n - cap in
  if old >= 0 && old >= st.stq_base then begin
    let b = bucket st.stq_addr.%(h) in
    st.stq_bucket.%(b) <- st.stq_bucket.%(b) - 1
  end;
  st.stq_addr.%(h) <- addr;
  st.stq_site.%(h) <- site;
  st.stq_addr_ready.%(h) <- addr_ready;
  st.stq_data_ready.%(h) <- data_ready;
  let b = bucket addr in
  st.stq_bucket.%(b) <- st.stq_bucket.%(b) + 1;
  st.stq_n <- st.stq_n + 1;
  st.stq_head <- (if h + 1 = cap then 0 else h + 1)

(* A violation: the load at [lsite] issued past the store at [ssite]. *)
let train st lsite ssite =
  st.lv.%(lsite) <- ssite;
  let set =
    let s = st.ss_load.%(lsite) in
    if s >= 0 then s
    else begin
      let s = st.ss_store.%(ssite) in
      if s >= 0 then s
      else begin
        st.ss_next <- st.ss_next + 1;
        st.ss_next
      end
    end
  in
  st.ss_load.%(lsite) <- set;
  st.ss_store.%(ssite) <- set

(* Completion time of a load dispatched at [t] whose address is ready at
   [base].  The predictor may hold it behind older stores it expects to
   alias; an older store to the same cell then either forwards its data
   or, if its address was still unknown when the load issued, forces a
   squash and replay. *)
let lsq_load st t base site fp addr =
  let cap = Array.length st.stq_addr in
  let n = st.stq_n in
  let lo =
    let l = n - cap in
    if st.stq_base > l then st.stq_base else if l > 0 then l else 0
  in
  let wait = ref base in
  let pred = st.pred.%(site) in
  if pred >= 0 && lo < n then begin
    (* the ring slot of store [lo] *)
    let j = st.stq_head - (n - lo) in
    let j = ref (if j < 0 then j + cap else j) in
    for _ = lo to n - 1 do
      let ar = st.stq_addr_ready.%(!j) in
      if ar > !wait then begin
        let s = st.stq_site.%(!j) in
        if (if st.store_set then st.ss_store.%(s) = pred else s = pred) then
          wait := ar
      end;
      j := if !j + 1 = cap then 0 else !j + 1
    done
  end;
  let issue = port st.mem_free (if !wait > t then !wait else t) in
  let complete = ref (issue + Cache.load_latency st.cache ~fp addr) in
  if lo < n && st.stq_bucket.%(bucket addr) > 0 then begin
    (* the youngest older store to the same cell decides *)
    let i = ref (n - 1) in
    let j = ref (if st.stq_head = 0 then cap - 1 else st.stq_head - 1) in
    while !i >= lo do
      let e = !j in
      if st.stq_addr.%(e) = addr then begin
        let ar = st.stq_addr_ready.%(e) and dr = st.stq_data_ready.%(e) in
        if ar > issue then begin
          st.ctrs.lsq_replays <- st.ctrs.lsq_replays + 1;
          complete := (if dr > ar then dr else ar) + st.cfg.replay_penalty;
          train st site st.stq_site.%(e)
        end
        else if dr >= issue then
          complete := if dr + 1 > issue + 1 then dr + 1 else issue + 1;
        i := lo - 1
      end
      else begin
        decr i;
        j := if e = 0 then cap - 1 else e - 1
      end
    done
  end;
  !complete

(* ------------------------------------------------------------------ *)
(* Timing events: one per instruction class, each run by the core     *)
(* the run selected                                                    *)
(* ------------------------------------------------------------------ *)

(* A result with no source operand: movi, movf, lea. *)
let[@inline] ev_def0 st ready pl d =
  if st.ooo then begin
    let t = dispatch st in
    ready.%(d) <- t + 1;
    retire st (t + 1) false
  end
  else begin
    charge st;
    let start = st.clock in
    advance_slot st;
    set_dst ready pl d (start + 1) false
  end

(* An ALU op of latency [lat] >= 1 on one or two sources. *)
let[@inline] ev_op1 st ready pl s d lat =
  if st.ooo then begin
    let t = dispatch st in
    let c = port st.alu_free (rdy1 ready t s) + lat in
    ready.%(d) <- c;
    retire st c false
  end
  else set_dst ready pl d (issue1 st ready pl s + lat) false

let[@inline] ev_op2 st ready pl a b d lat =
  if st.ooo then begin
    let t = dispatch st in
    let r1 = rdy1 ready t a and r2 = ready.%(b) in
    let c = port st.alu_free (if r2 > r1 then r2 else r1) + lat in
    ready.%(d) <- c;
    retire st c false
  end
  else set_dst ready pl d (issue2 st ready pl a b + lat) false

(* The timing of a load that reads memory — any load but a check that
   held — into [d] from [addr], held in register [a]; [t] is its OoO
   dispatch cycle. *)
let[@inline] ev_access st ready pl a d site fp addr t =
  if st.ooo then begin
    let c = lsq_load st t (rdy1 ready t a) site fp addr in
    ready.%(d) <- c;
    retire st c true
  end
  else begin
    let lat = Cache.load_latency st.cache ~fp addr in
    let start = issue1 st ready pl a in
    set_dst ready pl d (start + if lat > 1 then lat else 1) true
  end

(* A load; returns the cycle its ALAT traffic happens at. *)
let[@inline] ev_load st ready pl a d site fp addr =
  if st.ooo then begin
    let t = dispatch st in
    ev_access st ready pl a d site fp addr t;
    t
  end
  else begin
    ev_access st ready pl a d site fp addr 0;
    st.clock
  end

(* A check consults the ALAT at the cycle this returns: the in-order
   core before it issues, the OoO core once it is dispatched.  A check
   that held then retires through {!ev_held}; one that missed reloads
   through {!ev_access}. *)
let[@inline] ev_check st = if st.ooo then dispatch st else st.clock

(* in-order: a held check costs no issue slot *)
let[@inline] ev_held st t = if st.ooo then retire st t false else charge st

(* A store of register [s] to [addr], held in register [a]; returns the
   cycle its ALAT traffic happens at. *)
let[@inline] ev_store st ready pl s a site addr =
  if st.ooo then begin
    let t = dispatch st in
    let addr_rdy = rdy1 ready t a and data_rdy = rdy1 ready t s in
    let issue = port st.mem_free addr_rdy in
    push_store st addr site issue
      (if data_rdy > issue then data_rdy else issue);
    retire st issue false;
    t
  end
  else begin
    ignore (issue2 st ready pl s a : int);
    st.clock
  end

(* A call whose argument registers are [code.(off) .. code.(off + n -
   1)]; returns the cycle a builtin's result is ready. *)
let ev_call st ready pl code off n =
  if st.ooo then begin
    let r = ref (dispatch st) in
    for k = off to off + n - 1 do
      let v = ready.%(code.%(k)) in
      if v > !r then r := v
    done;
    retire st !r false;
    !r + 1
  end
  else begin
    charge st;
    let clock = st.clock in
    let start = ref clock and loaded = ref false in
    for k = off to off + n - 1 do
      let a = code.%(k) in
      let v = ready.%(a) in
      if v > !start then start := v;
      if v > clock && from_load pl a then loaded := true
    done;
    if !start > clock then begin
      if !loaded then
        st.ctrs.data_cycles <- st.ctrs.data_cycles + (!start - clock);
      st.clock <- !start;
      st.slot <- 0
    end;
    advance_slot st;
    st.clock
  end

(* A taken jump, a call into a user function or the return from it:
   fetch redirects, [k] cycles. *)
let redirect st k =
  if st.ooo then begin
    st.fslot <- 0;
    st.fclock <- st.fclock + k
  end
  else st.clock <- st.clock + k

(* A conditional branch on register [c]; [bp] is its predictor index. *)
let ev_branch st ready pl c taken bp =
  if st.ooo then begin
    let t = dispatch st in
    let resolve = port st.alu_free (rdy1 ready t c) + 1 in
    retire st resolve false;
    let ctr = Bytes.get_uint8 st.bp bp in
    Bytes.set_uint8 st.bp bp
      (if taken then (if ctr < 3 then ctr + 1 else 3)
       else if ctr > 0 then ctr - 1
       else 0);
    if (ctr >= 2) <> taken then begin
      (* mispredict: restore the checkpoint, redirect fetch *)
      st.ctrs.br_mispredicts <- st.ctrs.br_mispredicts + 1;
      let redirect = resolve + st.cfg.br_penalty in
      if redirect > st.fclock then begin
        st.fclock <- redirect;
        st.fslot <- 0
      end
    end
  end
  else ignore (issue1 st ready pl c : int)

(* A return of register [r], or of nothing when [r] < 0. *)
let ev_ret st ready pl r =
  if st.ooo then begin
    if r < 0 then st.ret_ready <- st.fclock
    else begin
      let t = dispatch st in
      let rdy = rdy1 ready t r in
      retire st rdy false;
      st.ret_ready <- rdy
    end
  end
  else if r >= 0 then ignore (issue1 st ready pl r : int)

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

(* The event operands of a two-source ALU op at [p]; returns its
   destination. *)
let[@inline] op2 st ready pl code p lat =
  let d = code.%(p + 1) in
  ev_op2 st ready pl code.%(p + 2) code.%(p + 3) d lat;
  d

let[@inline] op1 st ready pl code p lat =
  let d = code.%(p + 1) in
  ev_op1 st ready pl code.%(p + 2) d lat;
  d

(* Write a call's result [v], ready at cycle [t], to register [ret]
   (none when negative). *)
let[@inline] set_ret st ready pl ints ret t v =
  if ret >= 0 then begin
    ready.%(ret) <- t;
    if not st.ooo then Bytes.unsafe_set pl ret '\000';
    ints.%(ret) <- v
  end

(* Run function [fix] called with the [n] argument registers at
   [ccode.(off)..] of the caller's frame; the result is left in the
   return registers. *)
let rec exec_func st fix (cints : int array) (cflts : float array)
    (cready : int array) (ccode : int array) off n =
  let f = st.prog.Mcode.funcs.(fix) in
  st.frame_serial <- st.frame_serial + 1;
  let serial = st.frame_serial in
  let nregs = f.Mcode.nregs in
  let ints = Array.make nregs 0 and flts = Array.make nregs 0. in
  let ready = Array.make nregs 0 in
  let pl = if st.ooo then no_bytes else Bytes.make nregs '\000' in
  let addrs =
    if f.Mcode.n_addr = 0 then no_ints else Array.make f.Mcode.n_addr 0
  in
  let ctrs = st.ctrs in
  st.stacked_regs <- st.stacked_regs + nregs;
  if st.stacked_regs > ctrs.max_stacked_regs then
    ctrs.max_stacked_regs <- st.stacked_regs;
  if (not st.ooo) && st.stacked_regs > st.cfg.physical_stacked_regs then
    rse_spill st nregs;
  let mem = st.mem in
  let mark = Memory.stack_mark mem in
  let locals = f.Mcode.mem_locals in
  for k = 0 to Array.length locals - 1 do
    let slot, vid, bytes = locals.(k) in
    addrs.(slot) <- Memory.push_frame_var mem vid bytes
  done;
  (* bind formals: a memory-resident formal spills to its slot, and
     every formal with a register is also bound to it; on the OoO core
     the argument's ready time crosses the call *)
  let formals = f.Mcode.formals in
  if Array.length formals <> n then
    error "machine: arity mismatch for %s" f.Mcode.name;
  for k = 0 to n - 1 do
    let fm = formals.(k) and a = ccode.%(off + k) in
    if fm.Mcode.aslot >= 0 then begin
      let addr = Memory.push_frame_var mem fm.Mcode.vid fm.Mcode.bytes in
      addrs.(fm.Mcode.aslot) <- addr;
      if fm.Mcode.fp then Memory.store_flt mem addr cflts.(a)
      else Memory.store_int mem addr cints.(a)
    end;
    let r = fm.Mcode.reg in
    if r >= 0 then begin
      ints.(r) <- cints.(a);
      flts.(r) <- cflts.(a);
      if st.ooo then ready.(r) <- cready.(a)
    end
  done;
  let code = f.Mcode.code in
  let fpool = st.prog.Mcode.fpool and spool = st.prog.Mcode.spool in
  let alat = st.alat in
  let pc = ref 0 in
  while !pc >= 0 do
    let p = !pc in
    match code.%(p) with
    | 0 (* MOVI d i *) ->
      let d = code.%(p + 1) in
      ev_def0 st ready pl d;
      ints.%(d) <- code.%(p + 2);
      pc := p + 3
    | 1 (* MOVF d f *) ->
      let d = code.%(p + 1) in
      ev_def0 st ready pl d;
      flts.%{d} <- fpool.(code.%(p + 2));
      pc := p + 3
    | 2 (* MOV d s *) ->
      let d = op1 st ready pl code p 1 and s = code.%(p + 2) in
      ints.%(d) <- ints.%(s);
      flts.%{d} <- flts.%{s};
      pc := p + 3
    | 3 (* LEA_G d vid *) ->
      let d = code.%(p + 1) and vid = code.%(p + 2) in
      ev_def0 st ready pl d;
      let a = st.globals.(vid) in
      ints.%(d) <- (if a >= 0 then a else Memory.global_addr mem vid);
      pc := p + 3
    | 4 (* LEA_S d slot *) ->
      let d = code.%(p + 1) in
      ev_def0 st ready pl d;
      ints.%(d) <- addrs.(code.%(p + 2));
      pc := p + 3
    | 5 (* LEA_E d msg *) ->
      ev_def0 st ready pl code.%(p + 1);
      raise (Machine_error spool.(code.%(p + 2)))
    | (6 | 7 | 8 | 9) as op (* LD, LD.S d a site *) ->
      let d = code.%(p + 1) and a = code.%(p + 2) in
      let addr = ints.%(a) in
      let fp = op land 1 = 1 and spec = op >= 8 in
      if spec then ctrs.loads_spec <- ctrs.loads_spec + 1
      else ctrs.loads_plain <- ctrs.loads_plain + 1;
      ignore (ev_load st ready pl a d code.%(p + 3) fp addr : int);
      load_reg mem ints flts d addr fp spec;
      pc := p + 4
    | (10 | 11 | 12 | 13) as op (* LD.A, LD.SA d a site *) ->
      let d = code.%(p + 1) and a = code.%(p + 2) in
      let addr = ints.%(a) in
      let fp = op land 1 = 1 and spec = op >= 12 in
      if spec then ctrs.loads_spec <- ctrs.loads_spec + 1
      else ctrs.loads_adv <- ctrs.loads_adv + 1;
      let now = ev_load st ready pl a d code.%(p + 3) fp addr in
      load_reg mem ints flts d addr fp spec;
      interfere st now;
      Alat.insert alat ~frame:serial ~reg:d ~addr;
      pc := p + 4
    | (14 | 15) as op (* LD.C d a site *) ->
      let d = code.%(p + 1) and a = code.%(p + 2) in
      let addr = ints.%(a) in
      let now = ev_check st in
      ctrs.checks <- ctrs.checks + 1;
      interfere st now;
      if Alat.check alat ~frame:serial ~reg:d then
        (* speculation held: the value is already in [d] *)
        ev_held st now
      else begin
        ctrs.check_misses <- ctrs.check_misses + 1;
        ev_access st ready pl a d code.%(p + 3) (op = 15) addr now;
        load_reg mem ints flts d addr (op = 15) false;
        (* re-arm: a reloading ld.c behaves like ld.a for later checks *)
        Alat.insert alat ~frame:serial ~reg:d ~addr
      end;
      pc := p + 4
    | (16 | 17) as op (* ST s a site *) ->
      let s = code.%(p + 1) and a = code.%(p + 2) in
      let addr = ints.%(a) in
      let now = ev_store st ready pl s a code.%(p + 3) addr in
      ctrs.stores <- ctrs.stores + 1;
      if op = 16 then st_i mem addr ints.%(s) else st_f mem addr flts.%{s};
      Cache.store st.cache addr;
      interfere st now;
      if alat.Alat.n_live > 0 then
        Alat.invalidate_store alat ~addr ~bytes:Types.cell_size;
      pc := p + 4
    | ( 18 | 19 | 20 | 21 | 22 | 23 | 24 | 25 | 26 | 27 | 28 | 29 | 30 | 31
      | 32 | 33 ) as op (* int ALU d a b *) ->
      let d = op2 st ready pl code p 1 in
      let a = ints.%(code.%(p + 2)) and b = ints.%(code.%(p + 3)) in
      ints.%(d) <-
        (match op with
         | 18 -> a + b
         | 19 -> a - b
         | 20 -> a * b
         | 21 -> if b = 0 then error "machine: division by zero" else a / b
         | 22 -> if b = 0 then error "machine: remainder by zero" else a mod b
         | 23 -> a land b
         | 24 -> a lor b
         | 25 -> a lxor b
         | 26 -> a lsl (b land 63)
         | 27 -> a asr (b land 63)
         | 28 -> Bool.to_int (a < b)
         | 29 -> Bool.to_int (a <= b)
         | 30 -> Bool.to_int (a > b)
         | 31 -> Bool.to_int (a >= b)
         | 32 -> Bool.to_int (a = b)
         | _ -> Bool.to_int (a <> b));
      pc := p + 4
    | (34 | 35 | 36 | 37) as op (* float ALU d a b *) ->
      let d = op2 st ready pl code p 4 in
      let a = flts.%{code.%(p + 2)} and b = flts.%{code.%(p + 3)} in
      flts.%{d} <-
        (match op with
         | 34 -> a +. b
         | 35 -> a -. b
         | 36 -> a *. b
         | _ -> a /. b);
      pc := p + 4
    | (38 | 39 | 40 | 41 | 42 | 43) as op (* float compare d a b *) ->
      let d = op2 st ready pl code p 1 in
      let a = flts.%{code.%(p + 2)} and b = flts.%{code.%(p + 3)} in
      ints.%(d) <-
        Bool.to_int
          (match op with
           | 38 -> a < b
           | 39 -> a <= b
           | 40 -> a > b
           | 41 -> a >= b
           | 42 -> a = b
           | _ -> a <> b);
      pc := p + 4
    | 44 (* FBAD d a b msg *) ->
      ignore (op2 st ready pl code p 4 : int);
      raise (Machine_error spool.(code.%(p + 4)))
    | 45 (* NEG d s *) ->
      let d = op1 st ready pl code p 1 in
      ints.%(d) <- - ints.%(code.%(p + 2));
      pc := p + 3
    | 46 (* FNEG d s *) ->
      let d = op1 st ready pl code p 4 in
      flts.%{d} <- -. flts.%{code.%(p + 2)};
      pc := p + 3
    | 47 (* LNOT d s lat *) ->
      let d = op1 st ready pl code p code.%(p + 3) in
      ints.%(d) <- Bool.to_int (ints.%(code.%(p + 2)) = 0);
      pc := p + 4
    | 48 (* I2F d s lat *) ->
      let d = op1 st ready pl code p code.%(p + 3) in
      flts.%{d} <- float_of_int ints.%(code.%(p + 2));
      pc := p + 4
    | 49 (* F2I d s lat *) ->
      let d = op1 st ready pl code p code.%(p + 3) in
      ints.%(d) <- int_of_float flts.%{code.%(p + 2)};
      pc := p + 4
    | 50 (* CALL fix n ret args *) ->
      let n = code.%(p + 2) and ret = code.%(p + 3) in
      ignore (ev_call st ready pl code (p + 4) n : int);
      redirect st st.cfg.call_overhead;
      exec_func st code.%(p + 1) ints flts ready code (p + 4) n;
      redirect st 1;
      if ret >= 0 then begin
        set_ret st ready pl ints ret
          (if st.ooo then st.ret_ready else st.clock) st.ret_i;
        flts.%{ret} <- st.ret_f.%{0}
      end;
      pc := p + 4 + n
    | 51 (* MALLOC site 1 ret a *) ->
      let t = ev_call st ready pl code (p + 4) 1 in
      set_ret st ready pl ints code.%(p + 3) t
        (Memory.malloc mem ~site:code.%(p + 1) ints.%(code.%(p + 4)));
      pc := p + 5
    | 52 (* PRINT_INT 0 1 ret a *) ->
      let t = ev_call st ready pl code (p + 4) 1 in
      Buffer.add_string st.out (string_of_int ints.%(code.%(p + 4)));
      Buffer.add_char st.out '\n';
      set_ret st ready pl ints code.%(p + 3) t 0;
      pc := p + 5
    | 53 (* PRINT_FLT 0 1 ret a *) ->
      let t = ev_call st ready pl code (p + 4) 1 in
      Buffer.add_string st.out (Printf.sprintf "%.6g" flts.%{code.%(p + 4)});
      Buffer.add_char st.out '\n';
      set_ret st ready pl ints code.%(p + 3) t 0;
      pc := p + 5
    | 54 (* SEED 0 1 ret a *) ->
      let t = ev_call st ready pl code (p + 4) 1 in
      st.rng <- ints.%(code.%(p + 4));
      set_ret st ready pl ints code.%(p + 3) t 0;
      pc := p + 5
    | 55 (* RND 0 1 ret a *) ->
      let t = ev_call st ready pl code (p + 4) 1 in
      let m = ints.%(code.%(p + 4)) in
      if m <= 0 then error "machine: rnd bound";
      st.rng <- (st.rng * 0x5851F42D4C957F2D + 0x14057B7EF767814F) land max_int;
      set_ret st ready pl ints code.%(p + 3) t ((st.rng lsr 29) mod m);
      pc := p + 5
    | 56 (* CALL_ERR msg n ret args *) ->
      ignore (ev_call st ready pl code (p + 4) code.%(p + 2) : int);
      raise (Machine_error spool.(code.%(p + 1)))
    | 57 (* BR pc *) ->
      ctrs.branches <- ctrs.branches + 1;
      redirect st 1;
      pc := code.%(p + 1)
    | 58 (* BC c then else bp *) ->
      ctrs.branches <- ctrs.branches + 1;
      let c = code.%(p + 1) in
      let taken = ints.%(c) <> 0 in
      ev_branch st ready pl c taken code.%(p + 4);
      pc := if taken then code.%(p + 2) else code.%(p + 3)
    | 59 (* RET r *) ->
      let r = code.%(p + 1) in
      ev_ret st ready pl r;
      st.ret_i <- ints.%(r);
      st.ret_f.%{0} <- flts.%{r};
      pc := -1
    | 60 (* RET_NONE *) ->
      ev_ret st ready pl (-1);
      st.ret_i <- 0;
      st.ret_f.%{0} <- 0.;
      pc := -1
    | 61 (* ERR msg *) -> raise (Machine_error spool.(code.%(p + 1)))
    | op -> error "machine: bad opcode %d in %s" op f.Mcode.name
  done;
  Memory.pop_frame mem mark;
  st.stacked_regs <- st.stacked_regs - nregs

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let run_resolved_on kind ?(config = default_config) ?faults (p : rprog) =
  if p.Mcode.main < 0 then error "machine: unknown function main";
  if kind = Ooo && config.rob_entries < 1 then
    error "machine: rob_entries must be positive";
  let alat = Alat.create ~entries:config.alat_entries () in
  Alat.set_faults alat faults;
  let mem = Memory.create ~heap_bytes:config.heap_bytes p.Mcode.sir in
  let globals = Array.make (Symtab.count p.Mcode.sir.Sir.syms) (-1) in
  List.iter
    (fun g -> globals.(g) <- Memory.global_addr mem g)
    p.Mcode.sir.Sir.globals;
  let sites () = Array.make p.Mcode.n_sites (-1) in
  let lv = sites () and ss_load = sites () in
  let lsq = max 1 config.lsq_entries in
  let st =
    { prog = p; mem; cache = Cache.create (); alat; faults; cfg = config;
      ctrs = fresh_counters (); out = Buffer.create 256; globals;
      ooo = kind = Ooo; fuel = config.fuel; rng = 88172645463325252;
      frame_serial = 0; stacked_regs = 0;
      ret_i = 0; ret_f = [| 0. |]; ret_ready = 0;
      clock = 0; slot = 0;
      fclock = 0; fslot = 0; seq = 0;
      retq = Array.make (max 1 config.rob_entries) 0; rob_slot = 0;
      last_retire = 0;
      alu_free = Array.make (max 1 config.alu_ports) 0;
      mem_free = Array.make (max 1 config.mem_ports) 0;
      stq_addr = Array.make lsq min_int; stq_site = Array.make lsq (-1);
      stq_addr_ready = Array.make lsq 0; stq_data_ready = Array.make lsq 0;
      stq_n = 0; stq_head = 0; stq_base = 0; stq_bucket = Array.make 64 0;
      bp = Bytes.make Mcode.bp_size '\002';
      pred =
        (match config.mdp with
         | Mdp_none -> sites ()
         | Mdp_last_violator -> lv
         | Mdp_store_set -> ss_load);
      store_set = config.mdp = Mdp_store_set;
      lv; ss_load; ss_store = sites (); ss_next = 0; flush_seen = 0 }
  in
  exec_func st p.Mcode.main no_ints no_flts no_ints no_ints 0 0;
  st.ctrs.cycles <- (if st.ooo then st.last_retire else st.clock);
  let r =
    { ret_int = st.ret_i; output = Buffer.contents st.out; perf = st.ctrs;
      alat }
  in
  Memory.release mem;
  r

let run_on kind ?config ?faults mp =
  run_resolved_on kind ?config ?faults (resolve mp)

let run_sir_on kind ?config ?faults prog =
  run_on kind ?config ?faults (Spec_codegen.Codegen.lower prog)

let run_resolved ?config ?faults p = run_resolved_on Inorder ?config ?faults p
let run ?config ?faults mp = run_on Inorder ?config ?faults mp
let run_sir ?config ?faults prog = run_sir_on Inorder ?config ?faults prog

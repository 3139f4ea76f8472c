(** The in-order EPIC core — the paper's evaluation machine.

    Executes resolved ITL programs over the shared flat memory model
    while running a cycle-approximate in-order core model:

    - single-issue, non-blocking loads: an instruction stalls only when a
      source register is not ready yet (scoreboarding), which is when load
      latency becomes visible;
    - two-level cache with Itanium-flavoured latencies (int L1 hit = 2
      cycles, FP loads bypass L1 and hit L2 = 9 cycles);
    - the ALAT: ld.a allocates entries, stores invalidate them, ld.c
      costs nothing when the entry survives and reloads otherwise;
    - register-stack accounting with spill cycles when the stacked
      register demand exceeds the physical stacked file.

    Like the vm ({!Spec_prof.Vm}), the simulator executes a
    *resolved* program form ({!Backend.rprog}): symbol-table
    traversals, callee lookup and builtin dispatch were performed once at
    resolve time, and the per-instruction issue logic is specialized by
    source-operand count so the hot loop allocates nothing.  The
    observable results — output and every performance counter — are
    identical to the pre-refactor [Machine] module; [test/test_engines.ml]
    and [test/test_backends.ml] pin them against golden counters.

    Absolute cycle counts are not meant to match Itanium hardware; the
    mechanisms (what costs what, what invalidates what) are faithful, so
    relative effects — the paper's metrics — carry over. *)

open Spec_ir
open Spec_prof
open Backend

let kind = Backend.Inorder

type frame = {
  fr_serial : int;
  ints : int array;
  flts : float array;
  ready : int array;               (* cycle when register becomes ready *)
  prod_load : bool array;          (* producer was a load *)
  addrs : int array;               (* memory-resident local -> address *)
}

type state = {
  rp : rprog;
  mem : Memory.t;
  cache : Cache.t;
  alat : Alat.t;
  cfg : config;
  ctrs : counters;
  out : Buffer.t;
  globals : int array;             (* global vid -> address, -1 if absent *)
  mutable clock : int;
  mutable slot : int;                (* issue slots used in current cycle *)
  mutable rng : int;
  mutable fuel : int;
  mutable frame_serial : int;
  mutable stacked_regs : int;
}

let is_cmp = function
  | Sir.Lt | Sir.Le | Sir.Gt | Sir.Ge | Sir.Eq | Sir.Ne -> true
  | Sir.Add | Sir.Sub | Sir.Mul | Sir.Div | Sir.Rem
  | Sir.Band | Sir.Bor | Sir.Bxor | Sir.Shl | Sir.Shr -> false

(* timing: issue the instruction, stalling until sources are ready.
   Specialized by source count so the hot path allocates no operand
   lists.  Successful checks issue [free]: they retire without consuming
   an issue slot, per the paper's "a successful check costs 0 cycles". *)

let charge st =
  st.ctrs.insns <- st.ctrs.insns + 1;
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then error "machine out of fuel"

let advance_slot st =
  st.slot <- st.slot + 1;
  if st.slot >= st.cfg.issue_width then begin
    st.slot <- 0;
    st.clock <- st.clock + 1
  end

let set_dst (fr : frame) dst start latency is_load =
  if dst >= 0 then begin
    fr.ready.(dst) <- start + (if latency > 1 then latency else 1);
    fr.prod_load.(dst) <- is_load
  end

let issue0 st (fr : frame) ~dst ~latency ~is_load =
  charge st;
  let start = st.clock in
  advance_slot st;
  set_dst fr dst start latency is_load

(* a successful check: retires for free *)
let issue_free st =
  charge st

let issue1 st (fr : frame) ~src ~dst ~latency ~is_load =
  charge st;
  let clock = st.clock in
  let rdy = fr.ready.(src) in
  let start = if rdy > clock then rdy else clock in
  if start > clock then begin
    if fr.prod_load.(src) then
      st.ctrs.data_cycles <- st.ctrs.data_cycles + (start - clock);
    st.clock <- start;
    st.slot <- 0
  end;
  advance_slot st;
  set_dst fr dst start latency is_load

let issue2 st (fr : frame) ~src1 ~src2 ~dst ~latency ~is_load =
  charge st;
  let clock = st.clock in
  let r1 = fr.ready.(src1) and r2 = fr.ready.(src2) in
  let rdy = if r1 > r2 then r1 else r2 in
  let start = if rdy > clock then rdy else clock in
  if start > clock then begin
    if (fr.prod_load.(src1) && r1 > clock)
       || (fr.prod_load.(src2) && r2 > clock) then
      st.ctrs.data_cycles <- st.ctrs.data_cycles + (start - clock);
    st.clock <- start;
    st.slot <- 0
  end;
  advance_slot st;
  set_dst fr dst start latency is_load

(* calls keep the general list form; they are rare *)
let issue_n st (fr : frame) ~(srcs : int array) =
  charge st;
  let clock = st.clock in
  let start = Array.fold_left (fun acc r -> max acc fr.ready.(r)) clock srcs in
  if start > clock then begin
    if Array.exists (fun r -> fr.prod_load.(r) && fr.ready.(r) > clock) srcs
    then st.ctrs.data_cycles <- st.ctrs.data_cycles + (start - clock);
    st.clock <- start;
    st.slot <- 0
  end;
  advance_slot st

let lea_addr st (fr : frame) = function
  | RLea_g (_, vid) ->
    let a = st.globals.(vid) in
    if a >= 0 then a else Memory.global_addr st.mem vid
  | RLea_s (_, s) -> fr.addrs.(s)
  | RLea_e (_, name) -> error "machine: no slot for %s" name
  | _ -> assert false

let rec exec_insn st (fr : frame) (i : rinsn) =
  match i with
  | RMovi_i (d, v) ->
    issue0 st fr ~dst:d ~latency:1 ~is_load:false;
    fr.ints.(d) <- v
  | RMovi_f (d, v) ->
    issue0 st fr ~dst:d ~latency:1 ~is_load:false;
    fr.flts.(d) <- v
  | RMov (d, s) ->
    issue1 st fr ~src:s ~dst:d ~latency:1 ~is_load:false;
    fr.ints.(d) <- fr.ints.(s);
    fr.flts.(d) <- fr.flts.(s)
  | (RLea_g (d, _) | RLea_s (d, _) | RLea_e (d, _)) as lea ->
    issue0 st fr ~dst:d ~latency:1 ~is_load:false;
    fr.ints.(d) <- lea_addr st fr lea
  | RLd { dst; addr; fp; kind } -> exec_load st fr ~dst ~addr ~fp ~kind
  | RSt { src; addr; fp } ->
    issue2 st fr ~src1:src ~src2:addr ~dst:(-1) ~latency:1 ~is_load:false;
    st.ctrs.stores <- st.ctrs.stores + 1;
    let a = fr.ints.(addr) in
    if fp then Memory.store_flt st.mem a fr.flts.(src)
    else Memory.store_int st.mem a fr.ints.(src);
    Cache.store st.cache a;
    Alat.interfere st.alat ~now:st.clock;
    Alat.invalidate_store st.alat ~addr:a ~bytes:Types.cell_size
  | RAlu (op, fp, d, a, b) ->
    let latency = if fp && not (is_cmp op) then 4 else 1 in
    issue2 st fr ~src1:a ~src2:b ~dst:d ~latency ~is_load:false;
    if fp then begin
      let va = fr.flts.(a) and vb = fr.flts.(b) in
      match op with
      | Sir.Add -> fr.flts.(d) <- va +. vb
      | Sir.Sub -> fr.flts.(d) <- va -. vb
      | Sir.Mul -> fr.flts.(d) <- va *. vb
      | Sir.Div -> fr.flts.(d) <- va /. vb
      | Sir.Lt -> fr.ints.(d) <- (if va < vb then 1 else 0)
      | Sir.Le -> fr.ints.(d) <- (if va <= vb then 1 else 0)
      | Sir.Gt -> fr.ints.(d) <- (if va > vb then 1 else 0)
      | Sir.Ge -> fr.ints.(d) <- (if va >= vb then 1 else 0)
      | Sir.Eq -> fr.ints.(d) <- (if va = vb then 1 else 0)
      | Sir.Ne -> fr.ints.(d) <- (if va <> vb then 1 else 0)
      | Sir.Rem | Sir.Band | Sir.Bor | Sir.Bxor | Sir.Shl | Sir.Shr ->
        error "machine: fp alu %s" (Pp.binop_str op)
    end
    else begin
      let va = fr.ints.(a) and vb = fr.ints.(b) in
      match op with
      | Sir.Add -> fr.ints.(d) <- va + vb
      | Sir.Sub -> fr.ints.(d) <- va - vb
      | Sir.Mul -> fr.ints.(d) <- va * vb
      | Sir.Div ->
        if vb = 0 then error "machine: division by zero";
        fr.ints.(d) <- va / vb
      | Sir.Rem ->
        if vb = 0 then error "machine: remainder by zero";
        fr.ints.(d) <- va mod vb
      | Sir.Band -> fr.ints.(d) <- va land vb
      | Sir.Bor -> fr.ints.(d) <- va lor vb
      | Sir.Bxor -> fr.ints.(d) <- va lxor vb
      | Sir.Shl -> fr.ints.(d) <- va lsl (vb land 63)
      | Sir.Shr -> fr.ints.(d) <- va asr (vb land 63)
      | Sir.Lt -> fr.ints.(d) <- (if va < vb then 1 else 0)
      | Sir.Le -> fr.ints.(d) <- (if va <= vb then 1 else 0)
      | Sir.Gt -> fr.ints.(d) <- (if va > vb then 1 else 0)
      | Sir.Ge -> fr.ints.(d) <- (if va >= vb then 1 else 0)
      | Sir.Eq -> fr.ints.(d) <- (if va = vb then 1 else 0)
      | Sir.Ne -> fr.ints.(d) <- (if va <> vb then 1 else 0)
    end
  | RUn (op, fp, d, s) ->
    let latency = if fp then 4 else 1 in
    issue1 st fr ~src:s ~dst:d ~latency ~is_load:false;
    (match op with
     | Sir.Neg -> if fp then fr.flts.(d) <- -.fr.flts.(s)
       else fr.ints.(d) <- -fr.ints.(s)
     | Sir.Lnot -> fr.ints.(d) <- (if fr.ints.(s) = 0 then 1 else 0)
     | Sir.I2f -> fr.flts.(d) <- float_of_int fr.ints.(s)
     | Sir.F2i -> fr.ints.(d) <- int_of_float fr.flts.(s))
  | RCall { target; args; ret } -> exec_call st fr ~target ~args ~ret

and exec_load st fr ~dst ~addr ~fp ~kind =
  let open Spec_codegen.Itl in
  let a = fr.ints.(addr) in
  match kind with
  | Lchk ->
    st.ctrs.checks <- st.ctrs.checks + 1;
    Alat.interfere st.alat ~now:st.clock;
    if Alat.check st.alat ~frame:fr.fr_serial ~reg:dst then
      (* speculation held: value already in dst, the check is free *)
      issue_free st
    else begin
      st.ctrs.check_misses <- st.ctrs.check_misses + 1;
      let latency = Cache.load_latency st.cache ~fp a in
      issue1 st fr ~src:addr ~dst ~latency ~is_load:true;
      if fp then fr.flts.(dst) <- Memory.load_flt st.mem a
      else fr.ints.(dst) <- Memory.load_int st.mem a;
      (* re-arm: a reloading ld.c behaves like ld.a for later checks *)
      Alat.insert st.alat ~frame:fr.fr_serial ~reg:dst ~addr:a
    end
  | (Lnorm | Ladv | Lspec | Lsa) as k ->
    (match k with
     | Lnorm -> st.ctrs.loads_plain <- st.ctrs.loads_plain + 1
     | Ladv -> st.ctrs.loads_adv <- st.ctrs.loads_adv + 1
     | Lspec | Lsa -> st.ctrs.loads_spec <- st.ctrs.loads_spec + 1
     | Lchk -> assert false);
    let spec = k = Lspec || k = Lsa in
    let latency = Cache.load_latency st.cache ~fp a in
    issue1 st fr ~src:addr ~dst ~latency ~is_load:true;
    if fp then
      fr.flts.(dst) <-
        (if spec then Memory.load_flt_spec st.mem a
         else Memory.load_flt st.mem a)
    else
      fr.ints.(dst) <-
        (if spec then Memory.load_int_spec st.mem a
         else Memory.load_int st.mem a);
    if k = Ladv || k = Lsa then begin
      Alat.interfere st.alat ~now:st.clock;
      Alat.insert st.alat ~frame:fr.fr_serial ~reg:dst ~addr:a
    end

and exec_call st fr ~target ~args ~ret =
  issue_n st fr ~srcs:args;
  let set_builtin_ret result =
    if ret >= 0 then begin
      fr.ready.(ret) <- st.clock;
      fr.prod_load.(ret) <- false;
      fr.ints.(ret) <- result
    end
  in
  match target with
  | Cmalloc site ->
    set_builtin_ret (Memory.malloc st.mem ~site fr.ints.(args.(0)))
  | Cprint_int ->
    Buffer.add_string st.out (string_of_int fr.ints.(args.(0)));
    Buffer.add_char st.out '\n';
    set_builtin_ret 0
  | Cprint_flt ->
    Buffer.add_string st.out (Printf.sprintf "%.6g" fr.flts.(args.(0)));
    Buffer.add_char st.out '\n';
    set_builtin_ret 0
  | Cseed ->
    st.rng <- fr.ints.(args.(0));
    set_builtin_ret 0
  | Crnd ->
    let m = fr.ints.(args.(0)) in
    if m <= 0 then error "machine: rnd bound";
    st.rng <- (st.rng * 0x5851F42D4C957F2D + 0x14057B7EF767814F) land max_int;
    set_builtin_ret ((st.rng lsr 29) mod m)
  | Cbad (callee, n) -> error "machine: bad builtin call %s/%d" callee n
  | Cunknown name ->
    st.clock <- st.clock + st.cfg.call_overhead;
    error "machine: unknown function %s" name
  | Cuser ix ->
    st.clock <- st.clock + st.cfg.call_overhead;
    let rv, rf = exec_func st fr ix args in
    st.clock <- st.clock + 1;
    if ret >= 0 then begin
      fr.ready.(ret) <- st.clock;
      fr.prod_load.(ret) <- false;
      fr.ints.(ret) <- rv;
      fr.flts.(ret) <- rf
    end

and exec_func st (caller : frame) ix (args : int array) : int * float =
  let rf = st.rp.rfuncs.(ix) in
  st.frame_serial <- st.frame_serial + 1;
  let n = rf.rf_nregs in
  let fr =
    { fr_serial = st.frame_serial;
      ints = Array.make n 0; flts = Array.make n 0.;
      ready = Array.make n 0; prod_load = Array.make n false;
      addrs = (if rf.rf_n_addr = 0 then [||] else Array.make rf.rf_n_addr 0) }
  in
  (* register-stack accounting *)
  st.stacked_regs <- st.stacked_regs + n;
  if st.stacked_regs > st.ctrs.max_stacked_regs then
    st.ctrs.max_stacked_regs <- st.stacked_regs;
  if st.stacked_regs > st.cfg.physical_stacked_regs then begin
    let spill = min n (st.stacked_regs - st.cfg.physical_stacked_regs) in
    st.ctrs.rse_stall_cycles <- st.ctrs.rse_stall_cycles + (2 * spill);
    st.clock <- st.clock + (2 * spill)
  end;
  let mark = Memory.stack_mark st.mem in
  (* stack slots for memory-resident locals *)
  Array.iter
    (fun (slot, vid, bytes) ->
      fr.addrs.(slot) <- Memory.push_frame_var st.mem vid bytes)
    rf.rf_mem_locals;
  (* bind formals: memory-resident formals spill to their slot; every
     formal with an in-range register is also bound to it *)
  let nf = Array.length rf.rf_formals in
  if nf <> Array.length args then
    error "machine: arity mismatch for %s" rf.rf_name;
  for k = 0 to nf - 1 do
    (match rf.rf_formals.(k) with
     | RFreg -> ()
     | RFmem { aslot; vid; bytes; fp } ->
       let a = Memory.push_frame_var st.mem vid bytes in
       fr.addrs.(aslot) <- a;
       if fp then Memory.store_flt st.mem a caller.flts.(args.(k))
       else Memory.store_int st.mem a caller.ints.(args.(k)));
    let r = rf.rf_formal_regs.(k) in
    if r >= 0 && r < n then begin
      fr.ints.(r) <- caller.ints.(args.(k));
      fr.flts.(r) <- caller.flts.(args.(k))
    end
  done;
  let result = exec_blocks st fr rf in
  Memory.pop_frame st.mem mark;
  st.stacked_regs <- st.stacked_regs - n;
  result

and exec_blocks st (fr : frame) (rf : rfunc) : int * float =
  let rec run bid =
    let b = rf.rf_blocks.(bid) in
    let insns = b.r_insns in
    for k = 0 to Array.length insns - 1 do
      exec_insn st fr insns.(k)
    done;
    match b.r_term with
    | RTbr t ->
      st.ctrs.branches <- st.ctrs.branches + 1;
      st.clock <- st.clock + 1;
      run t
    | RTbc (c, t, e) ->
      st.ctrs.branches <- st.ctrs.branches + 1;
      issue1 st fr ~src:c ~dst:(-1) ~latency:1 ~is_load:false;
      run (if fr.ints.(c) <> 0 then t else e)
    | RTret_none -> (0, 0.)
    | RTret r ->
      issue1 st fr ~src:r ~dst:(-1) ~latency:1 ~is_load:false;
      (fr.ints.(r), fr.flts.(r))
  in
  run 0

let run_resolved ?(config = default_config) ?faults (rp : rprog) : result =
  if rp.r_main < 0 then error "machine: unknown function main";
  let mem = Memory.create ~heap_bytes:config.heap_bytes rp.r_sir in
  let globals = Array.make (Symtab.count rp.r_sir.Sir.syms) (-1) in
  List.iter
    (fun g -> globals.(g) <- Memory.global_addr mem g)
    rp.r_sir.Sir.globals;
  let st =
    { rp; mem;
      cache = Cache.create ();
      alat = Alat.create ~entries:config.alat_entries ();
      cfg = config;
      ctrs = fresh_counters ();
      out = Buffer.create 256;
      globals;
      clock = 0;
      slot = 0;
      rng = 88172645463325252;
      fuel = config.fuel;
      frame_serial = 0;
      stacked_regs = 0 }
  in
  Alat.set_faults st.alat faults;
  (* main has no caller: bind its (empty) args from a dummy frame *)
  let dummy =
    { fr_serial = 0; ints = [||]; flts = [||]; ready = [||];
      prod_load = [||]; addrs = [||] }
  in
  let ri, _ = exec_func st dummy rp.r_main [||] in
  st.ctrs.cycles <- st.clock;
  let r =
    { ret_int = ri; output = Buffer.contents st.out; perf = st.ctrs;
      alat = st.alat }
  in
  Memory.release st.mem;
  r

let run ?config ?faults (mp : Spec_codegen.Itl.mprog) : result =
  run_resolved ?config ?faults (resolve mp)

let run_sir ?config ?faults (prog : Sir.prog) : result =
  run ?config ?faults (Spec_codegen.Codegen.lower prog)

(** The out-of-order core — the modern control for the paper's claims.

    Same architectural semantics as {!Inorder} — instructions execute in
    program order over the shared flat memory model, so program output,
    instruction counts and ALAT hit/miss behaviour are identical across
    backends by construction — but the timing model is a dataflow
    out-of-order machine, computed alongside the in-order functional
    walk (trace-driven timing):

    - {b rename}: per-frame [ready] arrays hold the {e completion} time
      of each register's latest writer; a consumer never waits on a
      stale (WAR/WAW) definition, which is exactly what a physical
      register file buys;
    - {b ROB}: a circular buffer of retirement times.  Dispatch stalls
      when the instruction [rob_entries] older has not retired;
      retirement is in order and [retire_width]-wide; [data_cycles]
      counts only latency a load exposes {e at the retirement point} —
      latency the window hid costs nothing, which is the quantity to
      compare against the in-order core's stall counter;
    - {b reservation stations / ports}: instructions issue when their
      sources are complete and a port ([alu_ports]/[mem_ports]) is
      free, modelled as per-port next-free-cycle arrays (greedy);
    - {b LSQ + memory-dependence predictor}: a load may issue while an
      older store's address is still unresolved.  If the store turns
      out to alias, the load (and its dependents, summarily) replays:
      [replay_penalty] cycles and a [lsq_replays] tick — the hardware
      analogue of a failed ld.c.  A store-set (or last-violator)
      predictor learns violating pairs and makes later loads wait;
    - {b checkpoint-restore}: conditional branches run through a 2-bit
      predictor; a mispredict redirects fetch to [resolve +
      br_penalty], modelling flash-copy checkpoint restore.  Wrong-path
      work is never executed functionally, so restore is implicit;
    - {b fault mapping}: stress injectors ({!Spec_stress.Faults})
      attach to the ALAT exactly as on the in-order core; every
      injected {e flush} additionally drains the store queue and
      poisons the memory-dependence predictor ([mdp_poisons]) — the
      context-switch analogue for LSQ state.

    The register-stack engine does not exist on this core:
    [rse_stall_cycles] stays 0 (physical registers are rename-managed);
    [max_stacked_regs] still tracks architectural frame demand. *)

open Spec_ir
open Spec_prof
open Backend

let kind = Backend.Ooo

type frame = {
  fr_serial : int;
  ints : int array;
  flts : float array;
  ready : int array;               (* completion time of latest writer *)
  prod_load : bool array;          (* producer was a load *)
  addrs : int array;               (* memory-resident local -> address *)
}

(* store-queue entry; records are preallocated and mutated in place *)
type store_ent = {
  mutable s_addr : int;
  mutable s_site : int;
  mutable s_addr_ready : int;      (* cycle the address is known *)
  mutable s_data_ready : int;      (* cycle the data can forward *)
}

type state = {
  rp : rprog;
  mem : Memory.t;
  cache : Cache.t;
  alat : Alat.t;
  cfg : config;
  ctrs : counters;
  out : Buffer.t;
  globals : int array;
  faults : Spec_stress.Faults.injector option;
  (* front end *)
  mutable fclock : int;            (* dispatch cycle of the next insn *)
  mutable fslot : int;             (* insns dispatched in cycle fclock *)
  mutable seq : int;               (* next dynamic sequence number *)
  (* ROB: circular buffer of retirement times *)
  retq : int array;
  mutable rob_slot : int;          (* (seq - 1) mod rob_entries *)
  mutable last_retire : int;
  (* issue ports: next free cycle per port *)
  alu_free : int array;
  mem_free : int array;
  (* store queue (circular) *)
  stq : store_ent array;
  mutable stq_n : int;             (* total stores pushed *)
  mutable stq_base : int;          (* entries below this were drained *)
  (* branch predictor: 2-bit saturating counters *)
  bp : Bytes.t;
  (* memory-dependence predictor *)
  ss_load : (int, int) Hashtbl.t;  (* load site -> store set *)
  ss_store : (int, int) Hashtbl.t; (* store site -> store set *)
  mutable ss_next : int;
  lv : (int, int) Hashtbl.t;       (* load site -> last violating store *)
  mutable flush_seen : int;
  mutable rng : int;
  mutable fuel : int;
  mutable frame_serial : int;
  mutable stacked_regs : int;
}

let bp_size = 4096
let site_of ~func_ix ~bid k = ((func_ix lsl 22) lxor (bid lsl 11)) lor k

let is_cmp = function
  | Sir.Lt | Sir.Le | Sir.Gt | Sir.Ge | Sir.Eq | Sir.Ne -> true
  | Sir.Add | Sir.Sub | Sir.Mul | Sir.Div | Sir.Rem
  | Sir.Band | Sir.Bor | Sir.Bxor | Sir.Shl | Sir.Shr -> false

(* ------------------------------------------------------------------ *)
(* Timing primitives                                                   *)
(* ------------------------------------------------------------------ *)

(* Dispatch the next dynamic instruction: charge it, stall the front
   end if the ROB is full, consume a fetch slot.  Returns the dispatch
   cycle; {!retire} finds the instruction's sequence number in [st]. *)
let dispatch st =
  st.ctrs.insns <- st.ctrs.insns + 1;
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then error "machine out of fuel";
  let s = st.seq in
  st.seq <- s + 1;
  let n = st.cfg.rob_entries in
  let slot =
    if s = 0 || st.rob_slot + 1 = n then 0 else st.rob_slot + 1
  in
  st.rob_slot <- slot;
  if s >= n then begin
    (* the slot we are about to reuse still holds insn [s-n]'s retire *)
    let r = st.retq.(slot) in
    if r > st.fclock then begin
      st.fclock <- r;
      st.fslot <- 0
    end
  end;
  let t = st.fclock in
  st.fslot <- st.fslot + 1;
  if st.fslot >= st.cfg.fetch_width then begin
    st.fslot <- 0;
    st.fclock <- st.fclock + 1
  end;
  t

(* In-order, width-limited retirement of the instruction just
   dispatched (sequence number [st.seq - 1], ROB slot [st.rob_slot]).
   [data_cycles] counts only the latency a load exposes once it reaches
   the retirement point. *)
let retire st ~complete ~is_load =
  let s = st.seq - 1 in
  let n = st.cfg.rob_entries in
  let slot = st.rob_slot in
  let prev =
    if s = 0 then 0 else st.retq.(if slot = 0 then n - 1 else slot - 1)
  in
  let w = st.cfg.retire_width in
  let wprev =
    if s >= w then begin
      let k = slot - w in
      st.retq.(if k >= 0 then k else if k >= -n then k + n
               else (s - w) mod n) + 1
    end
    else 0
  in
  let floor_ = if prev > wprev then prev else wprev in
  if is_load && complete > floor_ then
    st.ctrs.data_cycles <- st.ctrs.data_cycles + (complete - floor_);
  let r = if complete > floor_ then complete else floor_ in
  st.retq.(slot) <- r;
  if r > st.last_retire then st.last_retire <- r

(* Greedy port allocation: earliest-free port, busy for one cycle. *)
let port (ports : int array) ready =
  let k = ref 0 in
  for i = 1 to Array.length ports - 1 do
    if ports.(i) < ports.(!k) then k := i
  done;
  let t = if ready > ports.(!k) then ready else ports.(!k) in
  ports.(!k) <- t + 1;
  t

let set_dst (fr : frame) dst complete is_load =
  if dst >= 0 then begin
    fr.ready.(dst) <- complete;
    fr.prod_load.(dst) <- is_load
  end

let rdy1 (fr : frame) t r = let v = fr.ready.(r) in if v > t then v else t

(* ------------------------------------------------------------------ *)
(* Fault mapping: ALAT flush => LSQ drain + predictor poison           *)
(* ------------------------------------------------------------------ *)

let poll_faults st =
  match st.faults with
  | None -> ()
  | Some inj ->
    let f = Spec_stress.Faults.flushes inj in
    if f > st.flush_seen then begin
      st.ctrs.mdp_poisons <- st.ctrs.mdp_poisons + (f - st.flush_seen);
      st.flush_seen <- f;
      st.stq_base <- st.stq_n;
      Hashtbl.reset st.ss_load;
      Hashtbl.reset st.ss_store;
      Hashtbl.reset st.lv
    end

let interfere st ~now =
  Alat.interfere st.alat ~now;
  poll_faults st

(* ------------------------------------------------------------------ *)
(* LSQ and memory-dependence predictor                                 *)
(* ------------------------------------------------------------------ *)

let find_site tbl site =
  match Hashtbl.find_opt tbl site with Some v -> v | None -> -1

(* The predictor's view of one load, looked up once per load: the store
   site it last violated against (last-violator) or its store set
   (store-set); -1 when it can be predicted dependent on no store.
   Sites and store-set ids are never negative. *)
let load_prediction st ~lsite =
  match st.cfg.mdp with
  | Mdp_none -> -1
  | Mdp_last_violator -> find_site st.lv lsite
  | Mdp_store_set -> find_site st.ss_load lsite

(* Is the store at [ssite] predicted to alias a load whose
   {!load_prediction} is [pred] (>= 0)? *)
let predicted_dep st ~pred ~ssite =
  match st.cfg.mdp with
  | Mdp_none -> false
  | Mdp_last_violator -> ssite = pred
  | Mdp_store_set ->
    (match Hashtbl.find_opt st.ss_store ssite with
     | Some s -> s = pred
     | None -> false)

let train st ~lsite ~ssite =
  Hashtbl.replace st.lv lsite ssite;
  let set =
    match Hashtbl.find_opt st.ss_load lsite with
    | Some s -> s
    | None ->
      (match Hashtbl.find_opt st.ss_store ssite with
       | Some s -> s
       | None ->
         st.ss_next <- st.ss_next + 1;
         st.ss_next)
  in
  Hashtbl.replace st.ss_load lsite set;
  Hashtbl.replace st.ss_store ssite set

let push_store st ~addr ~site ~addr_ready ~data_ready =
  let cap = Array.length st.stq in
  let e = st.stq.(st.stq_n mod cap) in
  e.s_addr <- addr;
  e.s_site <- site;
  e.s_addr_ready <- addr_ready;
  e.s_data_ready <- data_ready;
  st.stq_n <- st.stq_n + 1

(* Timing of one load against the store queue.  [base] is the cycle the
   load's address is ready; the predictor may delay issue past stores it
   believes will alias; an actual alias with a still-unresolved store
   address is a memory-order violation: squash + replay. *)
let load_timing st ~t ~base ~site ~fp a =
  let cap = Array.length st.stq in
  let lo =
    let l = st.stq_n - cap in
    if st.stq_base > l then st.stq_base else if l > 0 then l else 0
  in
  (* predictor: wait for predicted-dependent unresolved store addresses.
     Both scans step the ring index [j] rather than divide per entry. *)
  let wait = ref base in
  let pred = load_prediction st ~lsite:site in
  if pred >= 0 then begin
    let j = ref (lo mod cap) in
    for _ = lo to st.stq_n - 1 do
      let e = st.stq.(!j) in
      if e.s_addr_ready > !wait && predicted_dep st ~pred ~ssite:e.s_site
      then wait := e.s_addr_ready;
      j := if !j + 1 = cap then 0 else !j + 1
    done
  end;
  let issue = port st.mem_free (if !wait > t then !wait else t) in
  let lat = Cache.load_latency st.cache ~fp a in
  let complete = ref (issue + lat) in
  (* youngest older store to the same cell decides forward vs violate *)
  let i = ref (st.stq_n - 1) in
  let j = ref (if !i >= lo then !i mod cap else 0) in
  while !i >= lo do
    let e = st.stq.(!j) in
    if e.s_addr = a then begin
      if e.s_addr_ready > issue then begin
        (* issued past an unresolved store that aliased: violation *)
        st.ctrs.lsq_replays <- st.ctrs.lsq_replays + 1;
        let src =
          if e.s_data_ready > e.s_addr_ready then e.s_data_ready
          else e.s_addr_ready
        in
        complete := src + st.cfg.replay_penalty;
        train st ~lsite:site ~ssite:e.s_site
      end
      else if e.s_data_ready >= issue then begin
        (* store still in flight: forward from the queue *)
        let c = e.s_data_ready + 1 in
        complete := if c > issue + 1 then c else issue + 1
      end;
      i := lo - 1
    end
    else begin
      decr i;
      j := if !j = 0 then cap - 1 else !j - 1
    end
  done;
  !complete

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let lea_addr st (fr : frame) = function
  | RLea_g (_, vid) ->
    let a = st.globals.(vid) in
    if a >= 0 then a else Memory.global_addr st.mem vid
  | RLea_s (_, s) -> fr.addrs.(s)
  | RLea_e (_, name) -> error "machine: no slot for %s" name
  | _ -> assert false

let alu_compute fr d op fp a b =
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

let rec exec_insn st (fr : frame) ~site (i : rinsn) =
  match i with
  | RMovi_i (d, v) ->
    let t = dispatch st in
    set_dst fr d (t + 1) false;
    retire st ~complete:(t + 1) ~is_load:false;
    fr.ints.(d) <- v
  | RMovi_f (d, v) ->
    let t = dispatch st in
    set_dst fr d (t + 1) false;
    retire st ~complete:(t + 1) ~is_load:false;
    fr.flts.(d) <- v
  | RMov (d, sr) ->
    let t = dispatch st in
    let c = port st.alu_free (rdy1 fr t sr) + 1 in
    set_dst fr d c false;
    retire st ~complete:c ~is_load:false;
    fr.ints.(d) <- fr.ints.(sr);
    fr.flts.(d) <- fr.flts.(sr)
  | (RLea_g (d, _) | RLea_s (d, _) | RLea_e (d, _)) as lea ->
    let t = dispatch st in
    set_dst fr d (t + 1) false;
    retire st ~complete:(t + 1) ~is_load:false;
    fr.ints.(d) <- lea_addr st fr lea
  | RLd { dst; addr; fp; kind } -> exec_load st fr ~site ~dst ~addr ~fp ~kind
  | RSt { src; addr; fp } ->
    let t = dispatch st in
    st.ctrs.stores <- st.ctrs.stores + 1;
    let addr_rdy = rdy1 fr t addr in
    let data_rdy = rdy1 fr t src in
    let issue = port st.mem_free addr_rdy in
    push_store st ~addr:fr.ints.(addr) ~site ~addr_ready:issue
      ~data_ready:(if data_rdy > issue then data_rdy else issue);
    retire st ~complete:issue ~is_load:false;
    let a = fr.ints.(addr) in
    if fp then Memory.store_flt st.mem a fr.flts.(src)
    else Memory.store_int st.mem a fr.ints.(src);
    Cache.store st.cache a;
    interfere st ~now:t;
    Alat.invalidate_store st.alat ~addr:a ~bytes:Types.cell_size
  | RAlu (op, fp, d, a, b) ->
    let t = dispatch st in
    let latency = if fp && not (is_cmp op) then 4 else 1 in
    let r1 = rdy1 fr t a in
    let rdy = let r2 = fr.ready.(b) in if r2 > r1 then r2 else r1 in
    let c = port st.alu_free rdy + latency in
    set_dst fr d c false;
    retire st ~complete:c ~is_load:false;
    alu_compute fr d op fp a b
  | RUn (op, fp, d, sr) ->
    let t = dispatch st in
    let latency = if fp then 4 else 1 in
    let c = port st.alu_free (rdy1 fr t sr) + latency in
    set_dst fr d c false;
    retire st ~complete:c ~is_load:false;
    (match op with
     | Sir.Neg -> if fp then fr.flts.(d) <- -.fr.flts.(sr)
       else fr.ints.(d) <- -fr.ints.(sr)
     | Sir.Lnot -> fr.ints.(d) <- (if fr.ints.(sr) = 0 then 1 else 0)
     | Sir.I2f -> fr.flts.(d) <- float_of_int fr.ints.(sr)
     | Sir.F2i -> fr.ints.(d) <- int_of_float fr.flts.(sr))
  | RCall { target; args; ret } -> exec_call st fr ~target ~args ~ret

and exec_load st fr ~site ~dst ~addr ~fp ~kind =
  let open Spec_codegen.Itl in
  let a = fr.ints.(addr) in
  match kind with
  | Lchk ->
    let t = dispatch st in
    st.ctrs.checks <- st.ctrs.checks + 1;
    interfere st ~now:t;
    if Alat.check st.alat ~frame:fr.fr_serial ~reg:dst then
      (* speculation held: the check occupies a ROB slot but no port *)
      retire st ~complete:t ~is_load:false
    else begin
      st.ctrs.check_misses <- st.ctrs.check_misses + 1;
      let c = load_timing st ~t ~base:(rdy1 fr t addr) ~site ~fp a in
      set_dst fr dst c true;
      retire st ~complete:c ~is_load:true;
      if fp then fr.flts.(dst) <- Memory.load_flt st.mem a
      else fr.ints.(dst) <- Memory.load_int st.mem a;
      (* re-arm: a reloading ld.c behaves like ld.a for later checks *)
      Alat.insert st.alat ~frame:fr.fr_serial ~reg:dst ~addr:a
    end
  | (Lnorm | Ladv | Lspec | Lsa) as k ->
    let t = dispatch st in
    (match k with
     | Lnorm -> st.ctrs.loads_plain <- st.ctrs.loads_plain + 1
     | Ladv -> st.ctrs.loads_adv <- st.ctrs.loads_adv + 1
     | Lspec | Lsa -> st.ctrs.loads_spec <- st.ctrs.loads_spec + 1
     | Lchk -> assert false);
    let spec = k = Lspec || k = Lsa in
    let c = load_timing st ~t ~base:(rdy1 fr t addr) ~site ~fp a in
    set_dst fr dst c true;
    retire st ~complete:c ~is_load:true;
    if fp then
      fr.flts.(dst) <-
        (if spec then Memory.load_flt_spec st.mem a
         else Memory.load_flt st.mem a)
    else
      fr.ints.(dst) <-
        (if spec then Memory.load_int_spec st.mem a
         else Memory.load_int st.mem a);
    if k = Ladv || k = Lsa then begin
      interfere st ~now:t;
      Alat.insert st.alat ~frame:fr.fr_serial ~reg:dst ~addr:a
    end

and exec_call st fr ~target ~args ~ret =
  let t = dispatch st in
  let args_rdy =
    Array.fold_left (fun acc r -> let v = fr.ready.(r) in
                      if v > acc then v else acc)
      t args
  in
  retire st ~complete:args_rdy ~is_load:false;
  let set_builtin_ret result =
    if ret >= 0 then begin
      fr.ready.(ret) <- args_rdy + 1;
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
    st.fclock <- st.fclock + st.cfg.call_overhead;
    error "machine: unknown function %s" name
  | Cuser ix ->
    (* call: fetch redirects into the callee *)
    st.fslot <- 0;
    st.fclock <- st.fclock + st.cfg.call_overhead;
    let rv, rf, rrdy = exec_func st fr ix args in
    st.fslot <- 0;
    st.fclock <- st.fclock + 1;
    if ret >= 0 then begin
      fr.ready.(ret) <- rrdy;
      fr.prod_load.(ret) <- false;
      fr.ints.(ret) <- rv;
      fr.flts.(ret) <- rf
    end

and exec_func st (caller : frame) ix (args : int array) : int * float * int =
  let rf = st.rp.rfuncs.(ix) in
  st.frame_serial <- st.frame_serial + 1;
  let n = rf.rf_nregs in
  let fr =
    { fr_serial = st.frame_serial;
      ints = Array.make n 0; flts = Array.make n 0.;
      ready = Array.make n 0; prod_load = Array.make n false;
      addrs = (if rf.rf_n_addr = 0 then [||] else Array.make rf.rf_n_addr 0) }
  in
  (* architectural frame accounting; rename absorbs RSE spills *)
  st.stacked_regs <- st.stacked_regs + n;
  if st.stacked_regs > st.ctrs.max_stacked_regs then
    st.ctrs.max_stacked_regs <- st.stacked_regs;
  let mark = Memory.stack_mark st.mem in
  Array.iter
    (fun (slot, vid, bytes) ->
      fr.addrs.(slot) <- Memory.push_frame_var st.mem vid bytes)
    rf.rf_mem_locals;
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
      fr.flts.(r) <- caller.flts.(args.(k));
      (* dataflow: the argument's completion time crosses the call *)
      fr.ready.(r) <- caller.ready.(args.(k))
    end
  done;
  let result = exec_blocks st fr ~func_ix:ix rf in
  Memory.pop_frame st.mem mark;
  st.stacked_regs <- st.stacked_regs - n;
  result

and exec_blocks st (fr : frame) ~func_ix (rf : rfunc) : int * float * int =
  let rec run bid =
    let b = rf.rf_blocks.(bid) in
    let insns = b.r_insns in
    for k = 0 to Array.length insns - 1 do
      exec_insn st fr ~site:(site_of ~func_ix ~bid k) insns.(k)
    done;
    match b.r_term with
    | RTbr t ->
      st.ctrs.branches <- st.ctrs.branches + 1;
      (* unconditional taken branch: one-cycle fetch redirect *)
      st.fslot <- 0;
      st.fclock <- st.fclock + 1;
      run t
    | RTbc (c, tb, eb) ->
      st.ctrs.branches <- st.ctrs.branches + 1;
      let t = dispatch st in
      let resolve = port st.alu_free (rdy1 fr t c) + 1 in
      retire st ~complete:resolve ~is_load:false;
      let taken = fr.ints.(c) <> 0 in
      let idx = (site_of ~func_ix ~bid 2047 * 0x9E3779B1) land (bp_size - 1) in
      let ctr = Bytes.get_uint8 st.bp idx in
      let predicted = ctr >= 2 in
      Bytes.set_uint8 st.bp idx
        (if taken then (if ctr < 3 then ctr + 1 else 3)
         else if ctr > 0 then ctr - 1
         else 0);
      if predicted <> taken then begin
        (* mispredict: restore the checkpoint, redirect fetch *)
        st.ctrs.br_mispredicts <- st.ctrs.br_mispredicts + 1;
        let redirect = resolve + st.cfg.br_penalty in
        if redirect > st.fclock then begin
          st.fclock <- redirect;
          st.fslot <- 0
        end
      end;
      run (if taken then tb else eb)
    | RTret_none -> (0, 0., st.fclock)
    | RTret r ->
      let t = dispatch st in
      let rdy = rdy1 fr t r in
      retire st ~complete:rdy ~is_load:false;
      (fr.ints.(r), fr.flts.(r), rdy)
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
      faults;
      fclock = 0;
      fslot = 0;
      seq = 0;
      retq = Array.make (max 1 config.rob_entries) 0;
      rob_slot = 0;
      last_retire = 0;
      alu_free = Array.make (max 1 config.alu_ports) 0;
      mem_free = Array.make (max 1 config.mem_ports) 0;
      stq =
        Array.init (max 1 config.lsq_entries)
          (fun _ ->
            { s_addr = min_int; s_site = -1; s_addr_ready = 0;
              s_data_ready = 0 });
      stq_n = 0;
      stq_base = 0;
      bp = Bytes.make bp_size '\002';
      ss_load = Hashtbl.create 64;
      ss_store = Hashtbl.create 64;
      ss_next = 0;
      lv = Hashtbl.create 64;
      flush_seen = 0;
      rng = 88172645463325252;
      fuel = config.fuel;
      frame_serial = 0;
      stacked_regs = 0 }
  in
  Alat.set_faults st.alat faults;
  let dummy =
    { fr_serial = 0; ints = [||]; flts = [||]; ready = [||];
      prod_load = [||]; addrs = [||] }
  in
  let ri, _, _ = exec_func st dummy rp.r_main [||] in
  st.ctrs.cycles <- st.last_retire;
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

(** Threaded-code execution engine: a tight dispatch loop over the flat
    bytecode produced by {!Vmcode} (the "vm").

    One closure-free [loop] per activation dispatches on dense integer
    opcodes (the match compiles to a jump table) over unboxed per-frame
    int/float slot arrays, numbered by {!Interp.compile}.  Memory access
    inlines the bounds check and falls back to {!Memory}'s checked
    accessors on the slow path, so every fault is raised with the exact
    message the oracle ({!Interp_ref}) produces.

    All speculation semantics carry over: the semantic ALAT is the
    {!Sem_alat} table, advanced loads arm it (with the oracle's
    re-evaluated-address side effects and its try/with via a
    per-activation trap continuation), stores invalidate matching
    addresses, check loads reload only when their entry is gone, a
    returning activation drops its entries, and injected interference
    ({!Spec_stress.Faults}) advances on the same ALAT-operation clock.
    Observable behaviour — output, return value, and all counters — is
    identical to {!Interp_ref} on every run that terminates; the
    differential suites in [test/test_engines.ml] and [test/test_fuzz.ml]
    enforce this across workloads, variants and fault plans. *)

open Spec_ir
module I = Interp
module V = Vmcode

type result = I.result

let error = I.error

(* Dense profile counters, written by the profile-mode opcodes. *)
type recorder = {
  lay : V.layout;
  entries : int array;
  mutable invocations : int;
  edge_counts : int array;
  ref_counts : int array;
  site_locs : int array array;
  site_hits : int array array;
  site_n : int array;
  site_last : int array;
  cache_lo : int array;
  cache_hi : int array;
  cache_loc : int array;
  call_mod : Bytes.t;
  call_ref : Bytes.t;
  open_count : int array;
  open_slots : int array;
  mutable n_open : int;
  mutable epoch : int;
  mod_stamp : int array;
  ref_stamp : int array;
  mutable lookups : int;
  mutable ref_addr : int;
  mutable loads : int;
  mutable reused : int;
  cl_inv : int array;
  cl_addr : int array;
  cl_fp : Bytes.t;
  cl_int : int array;
  cl_flt : float array;
}

let recorder (lay : V.layout) n_funcs =
  let n_refs = Array.length lay.V.ref_sites in
  let n_calls = Array.length lay.V.call_sites in
  let n_classes = Array.length lay.V.classes in
  let n_locs = Array.length lay.V.locs in
  let bits = n_calls * n_locs in
  { lay;
    entries = Array.make n_funcs 0;
    invocations = 0;
    edge_counts = Array.make (Array.length lay.V.edges) 0;
    ref_counts = Array.make n_refs 0;
    site_locs = Array.make n_refs [||];
    site_hits = Array.make n_refs [||];
    site_n = Array.make n_refs 0;
    site_last = Array.make n_refs (-1);
    cache_lo = Array.make n_refs 0;
    cache_hi = Array.make n_refs 0;
    cache_loc = Array.make n_refs (-1);
    call_mod = Bytes.make bits '\000';
    call_ref = Bytes.make bits '\000';
    open_count = Array.make n_calls 0;
    open_slots = Array.make n_calls 0;
    n_open = 0;
    epoch = 0;
    mod_stamp = Array.make n_locs (-1);
    ref_stamp = Array.make n_locs (-1);
    lookups = 0;
    ref_addr = 0;
    loads = 0;
    reused = 0;
    cl_inv = Array.make n_classes (-1);
    cl_addr = Array.make n_classes 0;
    cl_fp = Bytes.make n_classes '\000';
    cl_int = Array.make n_classes 0;
    cl_flt = Array.make n_classes 0. }

(* plain runs: ordinary bytecode never touches the recorder *)
let no_recorder =
  recorder
    { V.edges = [||]; ref_sites = [||]; call_sites = [||]; locs = [||];
      loc_of_vid = [||]; loc_of_heap_site = [||]; classes = [||] }
    0

type state = {
  vp : V.program;
  mem : Memory.t;
  pr : recorder;         (* profile-mode counters *)
  found : Memory.found;  (* the recorder's last lookup *)
  ctrs : I.counters;
  out : Buffer.t;
  globals : int array;   (* orig vid -> data-segment address, -1 if none *)
  mutable rng : int;
  mutable fuel : int;
  alat : Sem_alat.t;     (* semantic ALAT *)
  (* return-value registers: callee -> caller, no allocation *)
  mutable ret_isf : bool;
  mutable ret_i : int;
  mutable ret_f : float;
  (* deopt recovery plan: failed checks whose pc has a descriptor finish
     the function in its unoptimized body instead of reloading *)
  recover : Spec_safety.Deopt.plan option;
}

(** Raised after a deoptimizing check's continuation has run: the return
    registers are already set, so the activation just unwinds to its
    frame pop. *)
exception Deopt_done

let no_ints : int array = [||]
let no_flts : float array = [||]

(* ---- memory fast paths ---- *)
(* One range test against the cells the image covers ([Memory.limit]).
   It avoids `addr + 8` so a near-max_int address cannot wrap into the
   fast path; other traffic falls back to the checked accessors, which
   read 0 from an uncovered cell, grow the image for a store to one, and
   raise (or, for spec loads, absorb) the exact faults the oracle
   sees. *)

let data_base = Memory.data_base

let[@inline] ld_i (m : Memory.t) addr =
  if addr >= data_base && addr <= m.Memory.limit - 8 && addr land 7 = 0
  then Array.unsafe_get m.Memory.ints (addr lsr 3)
  else Memory.load_int m addr

let[@inline] ld_f (m : Memory.t) addr =
  if addr >= data_base && addr <= m.Memory.limit - 8 && addr land 7 = 0
  then Array.unsafe_get m.Memory.flts (addr lsr 3)
  else Memory.load_flt m addr

let[@inline] ld_i_spec (m : Memory.t) addr =
  if addr >= data_base && addr <= m.Memory.limit - 8 && addr land 7 = 0
  then Array.unsafe_get m.Memory.ints (addr lsr 3)
  else Memory.load_int_spec m addr

let[@inline] ld_f_spec (m : Memory.t) addr =
  if addr >= data_base && addr <= m.Memory.limit - 8 && addr land 7 = 0
  then Array.unsafe_get m.Memory.flts (addr lsr 3)
  else Memory.load_flt_spec m addr

let[@inline] touch (m : Memory.t) c =
  if c >= Memory.heap_cell0 then begin
    if c >= m.Memory.hw_heap then m.Memory.hw_heap <- c + 1
  end
  else if c >= m.Memory.hw_low then m.Memory.hw_low <- c + 1

let[@inline] st_i (m : Memory.t) addr v =
  if addr >= data_base && addr <= m.Memory.limit - 8 && addr land 7 = 0
  then begin
    let c = addr lsr 3 in
    touch m c;
    Array.unsafe_set m.Memory.ints c v
  end
  else Memory.store_int m addr v

let[@inline] st_f (m : Memory.t) addr v =
  if addr >= data_base && addr <= m.Memory.limit - 8 && addr land 7 = 0
  then begin
    let c = addr lsr 3 in
    touch m c;
    Array.unsafe_set m.Memory.flts c v
  end
  else Memory.store_flt m addr v

let[@inline] glob_addr st g =
  let a = Array.unsafe_get st.globals g in
  if a >= 0 then a else Memory.global_addr st.mem g

(* ---- profile recording ---- *)
(* Nothing here allocates per access (a site's LOC table grows at most
   a few times per run), and a reference event is O(1) in the common
   case: a direct reference carries its LOC id from the lowering, an
   indirect one whose address falls in the object its slot saw last
   reuses that object's LOC, and a LOC already marked under the current
   set of open call sites is not marked again.  None of this is inlined
   into [exec_func]'s loop: the profile opcodes call it. *)

(* LOC id of what [addr] belongs to; leaves the owning object's extent
   in [st.found] *)
let lookup st addr =
  let pr = st.pr and f = st.found in
  pr.lookups <- pr.lookups + 1;
  Memory.resolve st.mem addr f;
  let o = f.Memory.owner in
  if o >= 0 then pr.lay.V.loc_of_vid.(o)
  else if o = -1 then -1
  else pr.lay.V.loc_of_heap_site.(-2 - o)

(* one more observation of [loc] at reference slot [r]; a new LOC is
   appended, so a site's table keeps first-touch order *)
let site_loc pr r loc =
  let locs = pr.site_locs.(r) in
  let j = pr.site_last.(r) in
  if j >= 0 && locs.(j) = loc then
    pr.site_hits.(r).(j) <- pr.site_hits.(r).(j) + 1
  else begin
    let n = pr.site_n.(r) in
    let j = ref 0 in
    while !j < n && locs.(!j) <> loc do incr j done;
    if !j = n then begin
      if n = Array.length locs then begin
        let grow a = Array.append a (Array.make (max 4 n) 0) in
        pr.site_locs.(r) <- grow locs;
        pr.site_hits.(r) <- grow pr.site_hits.(r)
      end;
      pr.site_locs.(r).(n) <- loc;
      pr.site_n.(r) <- n + 1
    end;
    pr.site_hits.(r).(!j) <- pr.site_hits.(r).(!j) + 1;
    pr.site_last.(r) <- !j
  end

(* [loc] joins the mod (a store) or ref set of every open call slot.
   The open set changes only where [epoch] moves, and marks only ever
   set bits, so a LOC stamped with the current epoch is marked under
   every open slot already *)
let mark pr store loc =
  let stamp = if store <> 0 then pr.mod_stamp else pr.ref_stamp in
  if stamp.(loc) <> pr.epoch then begin
    stamp.(loc) <- pr.epoch;
    let bits = if store <> 0 then pr.call_mod else pr.call_ref in
    let nl = Array.length pr.lay.V.locs in
    for i = 0 to pr.n_open - 1 do
      Bytes.unsafe_set bits ((pr.open_slots.(i) * nl) + loc) '\001'
    done
  end

(* a direct reference to the variable with LOC id [loc] *)
let[@inline never] record_direct pr store loc addr =
  pr.ref_addr <- addr;
  if loc >= 0 && pr.n_open > 0 then mark pr store loc

(* a reference through a pointer, at reference slot [r] (-1: none).
   The slot caches the extent and LOC of the object its last address
   fell in.  Globals and heap allocations keep their owner for the
   whole run; a stack cell's extent is empty, so a stack address always
   takes the lookup.  Every lookup rewrites the cache, which keeps the
   cached LOC the one at the slot's [site_last] *)
let[@inline never] record_indirect st r store addr =
  let pr = st.pr in
  pr.ref_addr <- addr;
  let loc =
    if r < 0 then lookup st addr
    else begin
      pr.ref_counts.(r) <- pr.ref_counts.(r) + 1;
      if addr >= pr.cache_lo.(r) && addr < pr.cache_hi.(r) then begin
        let hits = pr.site_hits.(r) and j = pr.site_last.(r) in
        hits.(j) <- hits.(j) + 1;
        pr.cache_loc.(r)
      end
      else begin
        let loc = lookup st addr in
        let f = st.found in
        if loc >= 0 then begin
          site_loc pr r loc;
          pr.cache_lo.(r) <- f.Memory.lo;
          pr.cache_hi.(r) <- f.Memory.hi;
          pr.cache_loc.(r) <- loc
        end
        else begin
          pr.cache_lo.(r) <- 0;
          pr.cache_hi.(r) <- 0
        end;
        loc
      end
    end
  in
  if loc >= 0 && pr.n_open > 0 then mark pr store loc

(* call slot [k] opens; [open_slots] holds each open slot once,
   outermost first: calls nest, so a slot whose last activation closes
   is on top *)
let[@inline never] cs_push pr k =
  let c = pr.open_count.(k) in
  if c = 0 then begin
    pr.open_slots.(pr.n_open) <- k;
    pr.n_open <- pr.n_open + 1;
    pr.epoch <- pr.epoch + 1
  end;
  pr.open_count.(k) <- c + 1

let[@inline never] cs_pop pr k =
  let c = pr.open_count.(k) - 1 in
  pr.open_count.(k) <- c;
  if c = 0 then begin
    pr.n_open <- pr.n_open - 1;
    pr.epoch <- pr.epoch + 1
  end

(* load-reuse observation of the value just loaded from the address of
   the preceding reference: a reuse when its class last loaded the same
   address and value within the same invocation.  Float equality is
   IEEE [=], as [=] on [Interp.value] is, so a nan never reuses. *)
let observe_int pr c v =
  pr.loads <- pr.loads + 1;
  if pr.cl_inv.(c) = pr.invocations && pr.cl_addr.(c) = pr.ref_addr
     && Bytes.get pr.cl_fp c = '\000' && pr.cl_int.(c) = v
  then pr.reused <- pr.reused + 1;
  pr.cl_inv.(c) <- pr.invocations;
  pr.cl_addr.(c) <- pr.ref_addr;
  Bytes.set pr.cl_fp c '\000';
  pr.cl_int.(c) <- v

let observe_flt pr c (f : float) =
  pr.loads <- pr.loads + 1;
  if pr.cl_inv.(c) = pr.invocations && pr.cl_addr.(c) = pr.ref_addr
     && Bytes.get pr.cl_fp c = '\001' && pr.cl_flt.(c) = f
  then pr.reused <- pr.reused + 1;
  pr.cl_inv.(c) <- pr.invocations;
  pr.cl_addr.(c) <- pr.ref_addr;
  Bytes.set pr.cl_fp c '\001';
  pr.cl_flt.(c) <- f

(* ---- dispatch ---- *)

let rec exec_func st fix (ai : int array) (af : float array) : unit =
  let vf = Array.unsafe_get st.vp.V.vfuncs fix in
  let serial = Sem_alat.enter_frame st.alat in
  let nr = vf.V.n_regs in
  let ints = if nr = 0 then no_ints else Array.make nr 0 in
  let flts = if nr = 0 then no_flts else Array.make nr 0. in
  let addrs =
    if vf.V.n_addr = 0 then no_ints else Array.make vf.V.n_addr 0
  in
  let mem = st.mem in
  let mark = Memory.stack_mark mem in
  Array.iter
    (fun (slot, vid, bytes) ->
      addrs.(slot) <- Memory.push_frame_var mem vid bytes)
    vf.V.vmem_locals;
  let nf = Array.length vf.V.vformals in
  if nf <> Array.length ai then error "arity mismatch calling %s" vf.V.vname;
  for k = 0 to nf - 1 do
    match vf.V.vformals.(k) with
    | I.Fm_reg { slot; fp } ->
      if fp then flts.(slot) <- af.(k) else ints.(slot) <- ai.(k)
    | I.Fm_mem { aslot; vid; bytes; fp } ->
      let addr = Memory.push_frame_var mem vid bytes in
      addrs.(aslot) <- addr;
      if fp then Memory.store_flt mem addr af.(k)
      else Memory.store_int mem addr ai.(k)
  done;
  let code = vf.V.vcode in
  let fpool = st.vp.V.fpool in
  let spool = st.vp.V.spool in
  let ctrs = st.ctrs in
  (* advanced-load arm spans set [trap]: a Runtime_error raised inside
     one resumes after the span (ld.a address-evaluation try/with) *)
  let trap = ref (-1) in
  let[@inline] set_ret rs rfp v =
    if rs >= 0 then begin
      if rfp <> 0 then error "expected float value, got int %d" v
      else Array.unsafe_set ints rs v
    end
  in
  (* failed check at [pc]: deoptimize instead of reloading when a plan is
     attached and the opcode carries a descriptor.  [vm_deopt] never
     returns normally (it raises [Deopt_done]); the [true] keeps the
     reload path conditional on the [false] branches. *)
  let deopting pc =
    match st.recover with
    | None -> false
    | Some pl ->
      (match Hashtbl.find_opt vf.V.vdeopt pc with
       | None -> false
       | Some (d, refund) ->
         vm_deopt st pl vf ints flts addrs d refund;
         true)
  in
  let rec loop pc : unit =
    match Array.unsafe_get code pc with
    | 0 (* STEPS *) ->
      let n = Array.unsafe_get code (pc + 1) in
      ctrs.I.steps <- ctrs.I.steps + n;
      st.fuel <- st.fuel - n;
      if st.fuel <= 0 then error "out of fuel (infinite loop?)";
      loop (pc + 2)
    | 1 (* ERR *) ->
      error "%s" (Array.unsafe_get spool (Array.unsafe_get code (pc + 1)))
    | 2 (* MOVI *) ->
      Array.unsafe_set ints
        (Array.unsafe_get code (pc + 1)) (Array.unsafe_get code (pc + 2));
      loop (pc + 3)
    | 3 (* MOVF *) ->
      Array.unsafe_set flts (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get fpool (Array.unsafe_get code (pc + 2)));
      loop (pc + 3)
    | 4 (* MOVR *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2)));
      loop (pc + 3)
    | 5 (* MOVRF *) ->
      Array.unsafe_set flts (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get flts (Array.unsafe_get code (pc + 2)));
      loop (pc + 3)
    | 6 (* LDG_I *) ->
      let addr = glob_addr st (Array.unsafe_get code (pc + 2)) in
      ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1)) (ld_i mem addr);
      loop (pc + 3)
    | 7 (* LDS_I *) ->
      let addr = Array.unsafe_get addrs (Array.unsafe_get code (pc + 2)) in
      ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1)) (ld_i mem addr);
      loop (pc + 3)
    | 8 (* LDG_F *) ->
      let addr = glob_addr st (Array.unsafe_get code (pc + 2)) in
      ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
      Array.unsafe_set flts (Array.unsafe_get code (pc + 1)) (ld_f mem addr);
      loop (pc + 3)
    | 9 (* LDS_F *) ->
      let addr = Array.unsafe_get addrs (Array.unsafe_get code (pc + 2)) in
      ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
      Array.unsafe_set flts (Array.unsafe_get code (pc + 1)) (ld_f mem addr);
      loop (pc + 3)
    | 10 (* ILOAD_I *) ->
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) in
      ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1)) (ld_i mem addr);
      loop (pc + 3)
    | 11 (* ILOAD_SI *) ->
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) in
      ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (ld_i_spec mem addr);
      loop (pc + 3)
    | 12 (* ILOAD_F *) ->
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) in
      ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
      Array.unsafe_set flts (Array.unsafe_get code (pc + 1)) (ld_f mem addr);
      loop (pc + 3)
    | 13 (* ILOAD_SF *) ->
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) in
      ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
      Array.unsafe_set flts (Array.unsafe_get code (pc + 1))
        (ld_f_spec mem addr);
      loop (pc + 3)
    | 14 (* LDA_G *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (glob_addr st (Array.unsafe_get code (pc + 2)));
      loop (pc + 3)
    | 15 (* LDA_S *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get addrs (Array.unsafe_get code (pc + 2)));
      loop (pc + 3)
    | 16 (* NEG *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (- (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))));
      loop (pc + 3)
    | 17 (* LNOT *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) = 0
         then 1 else 0);
      loop (pc + 3)
    | 18 (* F2I *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (int_of_float
           (Array.unsafe_get flts (Array.unsafe_get code (pc + 2))));
      loop (pc + 3)
    | 19 (* FNEG *) ->
      Array.unsafe_set flts (Array.unsafe_get code (pc + 1))
        (-. (Array.unsafe_get flts (Array.unsafe_get code (pc + 2))));
      loop (pc + 3)
    | 20 (* I2F *) ->
      Array.unsafe_set flts (Array.unsafe_get code (pc + 1))
        (float_of_int
           (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))));
      loop (pc + 3)
    | 21 (* OF_F *) ->
      error "expected int value, got float %g"
        (Array.unsafe_get flts (Array.unsafe_get code (pc + 1)))
    | 22 (* OF_I *) ->
      error "expected float value, got int %d"
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 1)))
    | 23 (* ADD *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
         + Array.unsafe_get ints (Array.unsafe_get code (pc + 3)));
      loop (pc + 4)
    | 24 (* SUB *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
         - Array.unsafe_get ints (Array.unsafe_get code (pc + 3)));
      loop (pc + 4)
    | 25 (* MUL *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
         * Array.unsafe_get ints (Array.unsafe_get code (pc + 3)));
      loop (pc + 4)
    | 26 (* DIV *) ->
      let vb = Array.unsafe_get ints (Array.unsafe_get code (pc + 3)) in
      if vb = 0 then error "integer division by zero";
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) / vb);
      loop (pc + 4)
    | 27 (* REM *) ->
      let vb = Array.unsafe_get ints (Array.unsafe_get code (pc + 3)) in
      if vb = 0 then error "integer remainder by zero";
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) mod vb);
      loop (pc + 4)
    | 28 (* AND *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
         land Array.unsafe_get ints (Array.unsafe_get code (pc + 3)));
      loop (pc + 4)
    | 29 (* OR *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
         lor Array.unsafe_get ints (Array.unsafe_get code (pc + 3)));
      loop (pc + 4)
    | 30 (* XOR *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
         lxor Array.unsafe_get ints (Array.unsafe_get code (pc + 3)));
      loop (pc + 4)
    | 31 (* SHL *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
         lsl (Array.unsafe_get ints (Array.unsafe_get code (pc + 3))
              land 63));
      loop (pc + 4)
    | 32 (* SHR *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
         asr (Array.unsafe_get ints (Array.unsafe_get code (pc + 3))
              land 63));
      loop (pc + 4)
    | 33 (* ADDI *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
         + Array.unsafe_get code (pc + 3));
      loop (pc + 4)
    | 34 (* SUBI *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
         - Array.unsafe_get code (pc + 3));
      loop (pc + 4)
    | 35 (* MULI *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
         * Array.unsafe_get code (pc + 3));
      loop (pc + 4)
    | 36 (* DIVI *) ->
      let vb = Array.unsafe_get code (pc + 3) in
      if vb = 0 then error "integer division by zero";
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) / vb);
      loop (pc + 4)
    | 37 (* REMI *) ->
      let vb = Array.unsafe_get code (pc + 3) in
      if vb = 0 then error "integer remainder by zero";
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) mod vb);
      loop (pc + 4)
    | 38 (* ANDI *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
         land Array.unsafe_get code (pc + 3));
      loop (pc + 4)
    | 39 (* ORI *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
         lor Array.unsafe_get code (pc + 3));
      loop (pc + 4)
    | 40 (* XORI *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
         lxor Array.unsafe_get code (pc + 3));
      loop (pc + 4)
    | 41 (* SHLI *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
         lsl (Array.unsafe_get code (pc + 3) land 63));
      loop (pc + 4)
    | 42 (* SHRI *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
         asr (Array.unsafe_get code (pc + 3) land 63));
      loop (pc + 4)
    | 43 (* ADD_LD *) ->
      let va = Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) in
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 3)) in
      ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (va + ld_i mem addr);
      loop (pc + 4)
    | 44 (* SUB_LD *) ->
      let va = Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) in
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 3)) in
      ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (va - ld_i mem addr);
      loop (pc + 4)
    | 45 (* MUL_LD *) ->
      let va = Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) in
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 3)) in
      ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (va * ld_i mem addr);
      loop (pc + 4)
    | 46 (* FADD *) ->
      Array.unsafe_set flts (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get flts (Array.unsafe_get code (pc + 2))
         +. Array.unsafe_get flts (Array.unsafe_get code (pc + 3)));
      loop (pc + 4)
    | 47 (* FSUB *) ->
      Array.unsafe_set flts (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get flts (Array.unsafe_get code (pc + 2))
         -. Array.unsafe_get flts (Array.unsafe_get code (pc + 3)));
      loop (pc + 4)
    | 48 (* FMUL *) ->
      Array.unsafe_set flts (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get flts (Array.unsafe_get code (pc + 2))
         *. Array.unsafe_get flts (Array.unsafe_get code (pc + 3)));
      loop (pc + 4)
    | 49 (* FDIV *) ->
      Array.unsafe_set flts (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get flts (Array.unsafe_get code (pc + 2))
         /. Array.unsafe_get flts (Array.unsafe_get code (pc + 3)));
      loop (pc + 4)
    | 50 (* FADD_LD *) ->
      let va = Array.unsafe_get flts (Array.unsafe_get code (pc + 2)) in
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 3)) in
      ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
      Array.unsafe_set flts (Array.unsafe_get code (pc + 1))
        (va +. ld_f mem addr);
      loop (pc + 4)
    | 51 (* FSUB_LD *) ->
      let va = Array.unsafe_get flts (Array.unsafe_get code (pc + 2)) in
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 3)) in
      ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
      Array.unsafe_set flts (Array.unsafe_get code (pc + 1))
        (va -. ld_f mem addr);
      loop (pc + 4)
    | 52 (* FMUL_LD *) ->
      let va = Array.unsafe_get flts (Array.unsafe_get code (pc + 2)) in
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 3)) in
      ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
      Array.unsafe_set flts (Array.unsafe_get code (pc + 1))
        (va *. ld_f mem addr);
      loop (pc + 4)
    | 53 (* CMP_LT *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
            < Array.unsafe_get ints (Array.unsafe_get code (pc + 3))
         then 1 else 0);
      loop (pc + 4)
    | 54 (* CMP_LE *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
            <= Array.unsafe_get ints (Array.unsafe_get code (pc + 3))
         then 1 else 0);
      loop (pc + 4)
    | 55 (* CMP_GT *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
            > Array.unsafe_get ints (Array.unsafe_get code (pc + 3))
         then 1 else 0);
      loop (pc + 4)
    | 56 (* CMP_GE *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
            >= Array.unsafe_get ints (Array.unsafe_get code (pc + 3))
         then 1 else 0);
      loop (pc + 4)
    | 57 (* CMP_EQ *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
            = Array.unsafe_get ints (Array.unsafe_get code (pc + 3))
         then 1 else 0);
      loop (pc + 4)
    | 58 (* CMP_NE *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
            <> Array.unsafe_get ints (Array.unsafe_get code (pc + 3))
         then 1 else 0);
      loop (pc + 4)
    | 59 (* CMPI_LT *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
            < Array.unsafe_get code (pc + 3)
         then 1 else 0);
      loop (pc + 4)
    | 60 (* CMPI_LE *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
            <= Array.unsafe_get code (pc + 3)
         then 1 else 0);
      loop (pc + 4)
    | 61 (* CMPI_GT *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
            > Array.unsafe_get code (pc + 3)
         then 1 else 0);
      loop (pc + 4)
    | 62 (* CMPI_GE *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
            >= Array.unsafe_get code (pc + 3)
         then 1 else 0);
      loop (pc + 4)
    | 63 (* CMPI_EQ *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
            = Array.unsafe_get code (pc + 3)
         then 1 else 0);
      loop (pc + 4)
    | 64 (* CMPI_NE *) ->
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
            <> Array.unsafe_get code (pc + 3)
         then 1 else 0);
      loop (pc + 4)
    | 65 (* FCMP_LT *) ->
      let c =
        compare
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 2)) : float)
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 3)))
      in
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if c < 0 then 1 else 0);
      loop (pc + 4)
    | 66 (* FCMP_LE *) ->
      let c =
        compare
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 2)) : float)
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 3)))
      in
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if c <= 0 then 1 else 0);
      loop (pc + 4)
    | 67 (* FCMP_GT *) ->
      let c =
        compare
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 2)) : float)
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 3)))
      in
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if c > 0 then 1 else 0);
      loop (pc + 4)
    | 68 (* FCMP_GE *) ->
      let c =
        compare
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 2)) : float)
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 3)))
      in
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if c >= 0 then 1 else 0);
      loop (pc + 4)
    | 69 (* FCMP_EQ *) ->
      let c =
        compare
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 2)) : float)
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 3)))
      in
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if c = 0 then 1 else 0);
      loop (pc + 4)
    | 70 (* FCMP_NE *) ->
      let c =
        compare
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 2)) : float)
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 3)))
      in
      Array.unsafe_set ints (Array.unsafe_get code (pc + 1))
        (if c <> 0 then 1 else 0);
      loop (pc + 4)
    | 71 (* STG_I *) ->
      let v = Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) in
      let addr = glob_addr st (Array.unsafe_get code (pc + 1)) in
      ctrs.I.mem_stores <- ctrs.I.mem_stores + 1;
      Sem_alat.invalidate st.alat addr;
      st_i mem addr v;
      loop (pc + 3)
    | 72 (* STS_I *) ->
      let v = Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) in
      let addr = Array.unsafe_get addrs (Array.unsafe_get code (pc + 1)) in
      ctrs.I.mem_stores <- ctrs.I.mem_stores + 1;
      Sem_alat.invalidate st.alat addr;
      st_i mem addr v;
      loop (pc + 3)
    | 73 (* STG_F *) ->
      let v = Array.unsafe_get flts (Array.unsafe_get code (pc + 2)) in
      let addr = glob_addr st (Array.unsafe_get code (pc + 1)) in
      ctrs.I.mem_stores <- ctrs.I.mem_stores + 1;
      Sem_alat.invalidate st.alat addr;
      st_f mem addr v;
      loop (pc + 3)
    | 74 (* STS_F *) ->
      let v = Array.unsafe_get flts (Array.unsafe_get code (pc + 2)) in
      let addr = Array.unsafe_get addrs (Array.unsafe_get code (pc + 1)) in
      ctrs.I.mem_stores <- ctrs.I.mem_stores + 1;
      Sem_alat.invalidate st.alat addr;
      st_f mem addr v;
      loop (pc + 3)
    | 75 (* IST_I *) ->
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 1)) in
      let v = Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) in
      ctrs.I.mem_stores <- ctrs.I.mem_stores + 1;
      Sem_alat.invalidate st.alat addr;
      st_i mem addr v;
      loop (pc + 3)
    | 76 (* IST_F *) ->
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 1)) in
      let v = Array.unsafe_get flts (Array.unsafe_get code (pc + 2)) in
      ctrs.I.mem_stores <- ctrs.I.mem_stores + 1;
      Sem_alat.invalidate st.alat addr;
      st_f mem addr v;
      loop (pc + 3)
    | 77 (* IST_II *) ->
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 1)) in
      let v = Array.unsafe_get code (pc + 2) in
      ctrs.I.mem_stores <- ctrs.I.mem_stores + 1;
      Sem_alat.invalidate st.alat addr;
      st_i mem addr v;
      loop (pc + 3)
    | 78 (* IST_ADD *) ->
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 1)) in
      let v =
        Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
        + Array.unsafe_get ints (Array.unsafe_get code (pc + 3))
      in
      ctrs.I.mem_stores <- ctrs.I.mem_stores + 1;
      Sem_alat.invalidate st.alat addr;
      st_i mem addr v;
      loop (pc + 4)
    | 79 (* IST_ADDI *) ->
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 1)) in
      let v =
        Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
        + Array.unsafe_get code (pc + 3)
      in
      ctrs.I.mem_stores <- ctrs.I.mem_stores + 1;
      Sem_alat.invalidate st.alat addr;
      st_i mem addr v;
      loop (pc + 4)
    | 80 (* CHKSTMT *) ->
      ctrs.I.check_stmts <- ctrs.I.check_stmts + 1;
      loop (pc + 1)
    | 81 (* CHK_ILOD_I *) ->
      ctrs.I.check_stmts <- ctrs.I.check_stmts + 1;
      let t = Array.unsafe_get code (pc + 1) in
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 3)) in
      if not (Sem_alat.check st.alat ~serial ~tag:t addr) && not (deopting pc) then begin
        ctrs.I.check_reloads <- ctrs.I.check_reloads + 1;
        ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
        Array.unsafe_set ints (Array.unsafe_get code (pc + 2))
          (ld_i mem addr);
        Sem_alat.arm st.alat ~serial ~tag:t addr
      end;
      loop (pc + 4)
    | 82 (* CHK_ILOD_F *) ->
      ctrs.I.check_stmts <- ctrs.I.check_stmts + 1;
      let t = Array.unsafe_get code (pc + 1) in
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 3)) in
      if not (Sem_alat.check st.alat ~serial ~tag:t addr) && not (deopting pc) then begin
        ctrs.I.check_reloads <- ctrs.I.check_reloads + 1;
        ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
        Array.unsafe_set flts (Array.unsafe_get code (pc + 2))
          (ld_f mem addr);
        Sem_alat.arm st.alat ~serial ~tag:t addr
      end;
      loop (pc + 4)
    | 83 (* CHK_LDG_I *) ->
      ctrs.I.check_stmts <- ctrs.I.check_stmts + 1;
      let t = Array.unsafe_get code (pc + 1) in
      let addr = glob_addr st (Array.unsafe_get code (pc + 3)) in
      if not (Sem_alat.check st.alat ~serial ~tag:t addr) && not (deopting pc) then begin
        ctrs.I.check_reloads <- ctrs.I.check_reloads + 1;
        ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
        Array.unsafe_set ints (Array.unsafe_get code (pc + 2))
          (ld_i mem addr);
        Sem_alat.arm st.alat ~serial ~tag:t addr
      end;
      loop (pc + 4)
    | 84 (* CHK_LDG_F *) ->
      ctrs.I.check_stmts <- ctrs.I.check_stmts + 1;
      let t = Array.unsafe_get code (pc + 1) in
      let addr = glob_addr st (Array.unsafe_get code (pc + 3)) in
      if not (Sem_alat.check st.alat ~serial ~tag:t addr) && not (deopting pc) then begin
        ctrs.I.check_reloads <- ctrs.I.check_reloads + 1;
        ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
        Array.unsafe_set flts (Array.unsafe_get code (pc + 2))
          (ld_f mem addr);
        Sem_alat.arm st.alat ~serial ~tag:t addr
      end;
      loop (pc + 4)
    | 85 (* CHK_LDS_I *) ->
      ctrs.I.check_stmts <- ctrs.I.check_stmts + 1;
      let t = Array.unsafe_get code (pc + 1) in
      let addr = Array.unsafe_get addrs (Array.unsafe_get code (pc + 3)) in
      if not (Sem_alat.check st.alat ~serial ~tag:t addr) && not (deopting pc) then begin
        ctrs.I.check_reloads <- ctrs.I.check_reloads + 1;
        ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
        Array.unsafe_set ints (Array.unsafe_get code (pc + 2))
          (ld_i mem addr);
        Sem_alat.arm st.alat ~serial ~tag:t addr
      end;
      loop (pc + 4)
    | 86 (* CHK_LDS_F *) ->
      ctrs.I.check_stmts <- ctrs.I.check_stmts + 1;
      let t = Array.unsafe_get code (pc + 1) in
      let addr = Array.unsafe_get addrs (Array.unsafe_get code (pc + 3)) in
      if not (Sem_alat.check st.alat ~serial ~tag:t addr) && not (deopting pc) then begin
        ctrs.I.check_reloads <- ctrs.I.check_reloads + 1;
        ctrs.I.mem_loads <- ctrs.I.mem_loads + 1;
        Array.unsafe_set flts (Array.unsafe_get code (pc + 2))
          (ld_f mem addr);
        Sem_alat.arm st.alat ~serial ~tag:t addr
      end;
      loop (pc + 4)
    | 87 (* ARM_TRY *) ->
      trap := Array.unsafe_get code (pc + 1);
      loop (pc + 2)
    | 88 (* ARM *) ->
      let t = Array.unsafe_get code (pc + 1) in
      let addr = Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) in
      Sem_alat.arm st.alat ~serial ~tag:t addr;
      trap := -1;
      loop (pc + 3)
    | 89 (* ARM_G *) ->
      let t = Array.unsafe_get code (pc + 1) in
      Sem_alat.arm st.alat ~serial ~tag:t (glob_addr st (Array.unsafe_get code (pc + 2)));
      loop (pc + 3)
    | 90 (* ARM_S *) ->
      let t = Array.unsafe_get code (pc + 1) in
      Sem_alat.arm st.alat ~serial ~tag:t
        (Array.unsafe_get addrs (Array.unsafe_get code (pc + 2)));
      loop (pc + 3)
    | 91 (* JMP *) -> loop (Array.unsafe_get code (pc + 1))
    | 92 (* BNZ *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      if Array.unsafe_get ints (Array.unsafe_get code (pc + 1)) <> 0
      then loop (Array.unsafe_get code (pc + 2))
      else loop (Array.unsafe_get code (pc + 3))
    | 93 (* BR_LT *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      if Array.unsafe_get ints (Array.unsafe_get code (pc + 1))
         < Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
      then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 94 (* BR_LE *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      if Array.unsafe_get ints (Array.unsafe_get code (pc + 1))
         <= Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
      then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 95 (* BR_GT *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      if Array.unsafe_get ints (Array.unsafe_get code (pc + 1))
         > Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
      then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 96 (* BR_GE *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      if Array.unsafe_get ints (Array.unsafe_get code (pc + 1))
         >= Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
      then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 97 (* BR_EQ *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      if Array.unsafe_get ints (Array.unsafe_get code (pc + 1))
         = Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
      then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 98 (* BR_NE *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      if Array.unsafe_get ints (Array.unsafe_get code (pc + 1))
         <> Array.unsafe_get ints (Array.unsafe_get code (pc + 2))
      then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 99 (* BRI_LT *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      if Array.unsafe_get ints (Array.unsafe_get code (pc + 1))
         < Array.unsafe_get code (pc + 2)
      then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 100 (* BRI_LE *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      if Array.unsafe_get ints (Array.unsafe_get code (pc + 1))
         <= Array.unsafe_get code (pc + 2)
      then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 101 (* BRI_GT *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      if Array.unsafe_get ints (Array.unsafe_get code (pc + 1))
         > Array.unsafe_get code (pc + 2)
      then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 102 (* BRI_GE *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      if Array.unsafe_get ints (Array.unsafe_get code (pc + 1))
         >= Array.unsafe_get code (pc + 2)
      then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 103 (* BRI_EQ *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      if Array.unsafe_get ints (Array.unsafe_get code (pc + 1))
         = Array.unsafe_get code (pc + 2)
      then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 104 (* BRI_NE *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      if Array.unsafe_get ints (Array.unsafe_get code (pc + 1))
         <> Array.unsafe_get code (pc + 2)
      then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 105 (* BRF_LT *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      let c =
        compare
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 1)) : float)
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 2)))
      in
      if c < 0 then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 106 (* BRF_LE *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      let c =
        compare
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 1)) : float)
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 2)))
      in
      if c <= 0 then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 107 (* BRF_GT *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      let c =
        compare
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 1)) : float)
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 2)))
      in
      if c > 0 then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 108 (* BRF_GE *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      let c =
        compare
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 1)) : float)
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 2)))
      in
      if c >= 0 then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 109 (* BRF_EQ *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      let c =
        compare
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 1)) : float)
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 2)))
      in
      if c = 0 then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 110 (* BRF_NE *) ->
      ctrs.I.branches <- ctrs.I.branches + 1;
      let c =
        compare
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 1)) : float)
          (Array.unsafe_get flts (Array.unsafe_get code (pc + 2)))
      in
      if c <> 0 then loop (Array.unsafe_get code (pc + 3))
      else loop (Array.unsafe_get code (pc + 4))
    | 111 (* RET0 *) ->
      st.ret_isf <- false;
      st.ret_i <- 0
    | 112 (* RET_I *) ->
      st.ret_isf <- false;
      st.ret_i <- Array.unsafe_get ints (Array.unsafe_get code (pc + 1))
    | 113 (* RET_F *) ->
      st.ret_isf <- true;
      st.ret_f <- Array.unsafe_get flts (Array.unsafe_get code (pc + 1))
    | 114 (* B_MALLOC *) ->
      let bytes = Array.unsafe_get ints (Array.unsafe_get code (pc + 1)) in
      ctrs.I.calls <- ctrs.I.calls + 1;
      set_ret (Array.unsafe_get code (pc + 2)) (Array.unsafe_get code (pc + 3))
        (Memory.malloc mem ~site:(Array.unsafe_get code (pc + 4)) bytes);
      loop (pc + 5)
    | 115 (* B_PRINT_I *) ->
      let v = Array.unsafe_get ints (Array.unsafe_get code (pc + 1)) in
      ctrs.I.calls <- ctrs.I.calls + 1;
      Buffer.add_string st.out (string_of_int v);
      Buffer.add_char st.out '\n';
      set_ret (Array.unsafe_get code (pc + 2))
        (Array.unsafe_get code (pc + 3)) 0;
      loop (pc + 4)
    | 116 (* B_PRINT_F *) ->
      let v = Array.unsafe_get flts (Array.unsafe_get code (pc + 1)) in
      ctrs.I.calls <- ctrs.I.calls + 1;
      Buffer.add_string st.out (Printf.sprintf "%.6g" v);
      Buffer.add_char st.out '\n';
      set_ret (Array.unsafe_get code (pc + 2))
        (Array.unsafe_get code (pc + 3)) 0;
      loop (pc + 4)
    | 117 (* B_SEED *) ->
      let v = Array.unsafe_get ints (Array.unsafe_get code (pc + 1)) in
      ctrs.I.calls <- ctrs.I.calls + 1;
      st.rng <- v;
      set_ret (Array.unsafe_get code (pc + 2))
        (Array.unsafe_get code (pc + 3)) 0;
      loop (pc + 4)
    | 118 (* B_RND *) ->
      let m = Array.unsafe_get ints (Array.unsafe_get code (pc + 1)) in
      ctrs.I.calls <- ctrs.I.calls + 1;
      if m <= 0 then error "rnd expects a positive bound";
      st.rng <-
        (st.rng * 0x5851F42D4C957F2D + 0x14057B7EF767814F) land max_int;
      set_ret (Array.unsafe_get code (pc + 2)) (Array.unsafe_get code (pc + 3))
        ((st.rng lsr 29) mod m);
      loop (pc + 4)
    | 119 (* CALL *) ->
      let fix = Array.unsafe_get code (pc + 1) in
      let rs = Array.unsafe_get code (pc + 2) in
      let rfp = Array.unsafe_get code (pc + 3) in
      let n = Array.unsafe_get code (pc + 4) in
      let cai = if n = 0 then no_ints else Array.make n 0 in
      let caf = if n = 0 then no_flts else Array.make n 0. in
      for k = 0 to n - 1 do
        let enc = Array.unsafe_get code (pc + 5 + k) in
        let s = enc lsr 1 in
        if enc land 1 = 1 then caf.(k) <- Array.unsafe_get flts s
        else cai.(k) <- Array.unsafe_get ints s
      done;
      ctrs.I.calls <- ctrs.I.calls + 1;
      exec_func st fix cai caf;
      if rs >= 0 then begin
        if rfp <> 0 then begin
          if st.ret_isf then Array.unsafe_set flts rs st.ret_f
          else error "expected float value, got int %d" st.ret_i
        end
        else begin
          if st.ret_isf then error "expected int value, got float %g" st.ret_f
          else Array.unsafe_set ints rs st.ret_i
        end
      end;
      loop (pc + 5 + n)
    | 120 (* CALL_ERR *) ->
      ctrs.I.calls <- ctrs.I.calls + 1;
      error "%s" (Array.unsafe_get spool (Array.unsafe_get code (pc + 1)))
    | 121 (* CALL_UNKNOWN *) ->
      ctrs.I.calls <- ctrs.I.calls + 1;
      invalid_arg
        (Array.unsafe_get spool (Array.unsafe_get code (pc + 1)))
    (* profile mode: no steps, no fuel *)
    | 122 (* ENTRY *) ->
      let pr = st.pr in
      let f = Array.unsafe_get code (pc + 1) in
      pr.entries.(f) <- pr.entries.(f) + 1;
      pr.invocations <- pr.invocations + 1;
      loop (pc + 2)
    | 123 (* EDGE *) ->
      let ec = st.pr.edge_counts in
      let e = Array.unsafe_get code (pc + 1) in
      ec.(e) <- ec.(e) + 1;
      loop (Array.unsafe_get code (pc + 2))
    | 124 (* MREF_G *) ->
      record_direct st.pr (Array.unsafe_get code (pc + 2))
        (Array.unsafe_get code (pc + 1))
        (glob_addr st (Array.unsafe_get code (pc + 3)));
      loop (pc + 4)
    | 125 (* MREF_S *) ->
      record_direct st.pr (Array.unsafe_get code (pc + 2))
        (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get addrs (Array.unsafe_get code (pc + 3)));
      loop (pc + 4)
    | 126 (* MREF_R *) ->
      record_indirect st (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get code (pc + 2))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 3)));
      loop (pc + 4)
    | 127 (* LDV_I *) ->
      observe_int st.pr (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get ints (Array.unsafe_get code (pc + 2)));
      loop (pc + 3)
    | 128 (* LDV_F *) ->
      observe_flt st.pr (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get flts (Array.unsafe_get code (pc + 2)));
      loop (pc + 3)
    | 129 (* CS_PUSH *) ->
      cs_push st.pr (Array.unsafe_get code (pc + 1));
      loop (pc + 2)
    | 130 (* CS_POP *) ->
      cs_pop st.pr (Array.unsafe_get code (pc + 1));
      loop (pc + 2)
    | op -> error "vm: corrupt bytecode (opcode %d at %d in %s)" op pc
              vf.V.vname
  in
  let rec go pc =
    try loop pc
    with I.Runtime_error _ when !trap >= 0 ->
      let t = !trap in
      trap := -1;
      go t
  in
  (try go 0 with Deopt_done -> ());
  Sem_alat.exit_frame st.alat serial;
  Memory.pop_frame mem mark

(* Deoptimization: transfer the live register state into the
   unoptimized body and finish the function there.  The hooks count the
   continuation's steps, loads, stores, branches and calls as it runs;
   [test/test_safety.ml] and [test/test_fuzz.ml] pin the resulting
   counters under [--recover deopt]. *)
and vm_deopt st (pl : Spec_safety.Deopt.plan) (vf : V.func)
    (ints : int array) (flts : float array) (addrs : int array)
    (d : I.cdeopt) (refund : int) : unit =
  let module D = Spec_safety.Deopt in
  st.ctrs.I.deopts <- st.ctrs.I.deopts + 1;
  (* the block's steps were charged up-front at its STEPS opcode; credit
     back the statements (and terminator) the deopt skips, so step and
     fuel accounting match per-statement charging exactly and the
     pinned deopt counters hold *)
  st.ctrs.I.steps <- st.ctrs.I.steps - refund;
  st.fuel <- st.fuel + refund;
  let regs =
    Array.fold_right
      (fun (vid, slot, fp) acc ->
        (vid, if fp then D.Vflt flts.(slot) else D.Vint ints.(slot)) :: acc)
      d.I.d_vars []
  in
  (* orig vid -> frame address of memory-resident locals and formals *)
  let frame_addr = Hashtbl.create 8 in
  Array.iter
    (fun (slot, vid, _) -> Hashtbl.replace frame_addr vid addrs.(slot))
    vf.V.vmem_locals;
  Array.iter
    (function
      | I.Fm_mem { aslot; vid; _ } ->
        Hashtbl.replace frame_addr vid addrs.(aslot)
      | I.Fm_reg _ -> ())
    vf.V.vformals;
  let h =
    { D.h_load =
        (fun ty addr ->
          st.ctrs.I.mem_loads <- st.ctrs.I.mem_loads + 1;
          if Types.is_fp ty then D.Vflt (Memory.load_flt st.mem addr)
          else D.Vint (Memory.load_int st.mem addr));
      D.h_store =
        (fun ty addr v ->
          st.ctrs.I.mem_stores <- st.ctrs.I.mem_stores + 1;
          Sem_alat.invalidate st.alat addr;
          if Types.is_fp ty then Memory.store_flt st.mem addr (D.as_flt v)
          else Memory.store_int st.mem addr (D.as_int v));
      D.h_addr_of =
        (fun vid ->
          match Hashtbl.find_opt frame_addr vid with
          | Some a -> a
          | None -> glob_addr st vid);
      D.h_spend =
        (fun () ->
          st.ctrs.I.steps <- st.ctrs.I.steps + 1;
          st.fuel <- st.fuel - 1;
          if st.fuel <= 0 then error "out of fuel (infinite loop?)");
      D.h_branch =
        (fun () -> st.ctrs.I.branches <- st.ctrs.I.branches + 1);
      D.h_call = (fun ~site name argv -> vm_deopt_call st ~site name argv) }
  in
  let ret =
    try D.deoptimize pl h ~fname:vf.V.vname ~target:d.I.d_sid ~regs
    with D.Error msg -> raise (I.Runtime_error msg)
  in
  (match ret with
   | D.Vint i -> st.ret_isf <- false; st.ret_i <- i
   | D.Vflt f -> st.ret_isf <- true; st.ret_f <- f);
  raise Deopt_done

(* Call dispatch for the deopt continuation: builtins mirror
   [Interp_ref.call] exactly; user calls re-enter this engine's
   (optimized) bytecode bodies. *)
and vm_deopt_call st ~site name (argv : Spec_safety.Deopt.value list)
  : Spec_safety.Deopt.value =
  let module D = Spec_safety.Deopt in
  st.ctrs.I.calls <- st.ctrs.I.calls + 1;
  match name, argv with
  | "malloc", [ D.Vint bytes ] ->
    D.Vint (Memory.malloc st.mem ~site bytes)
  | "malloc", _ -> raise (I.Runtime_error "malloc expects one int")
  | "print_int", [ D.Vint i ] ->
    Buffer.add_string st.out (string_of_int i);
    Buffer.add_char st.out '\n';
    D.Vint 0
  | "print_int", _ -> raise (I.Runtime_error "print_int expects one int")
  | "print_flt", [ D.Vflt f ] ->
    Buffer.add_string st.out (Printf.sprintf "%.6g" f);
    Buffer.add_char st.out '\n';
    D.Vint 0
  | "print_flt", _ -> raise (I.Runtime_error "print_flt expects one float")
  | "seed", [ D.Vint s ] ->
    st.rng <- s;
    D.Vint 0
  | "seed", _ -> raise (I.Runtime_error "seed expects one int")
  | "rnd", [ D.Vint m ] ->
    if m <= 0 then raise (I.Runtime_error "rnd expects a positive bound");
    st.rng <- (st.rng * 0x5851F42D4C957F2D + 0x14057B7EF767814F) land max_int;
    D.Vint ((st.rng lsr 29) mod m)
  | "rnd", _ -> raise (I.Runtime_error "rnd expects one int")
  | _ ->
    let ix = ref (-1) in
    Array.iteri
      (fun i f -> if f.V.vname = name then ix := i)
      st.vp.V.vfuncs;
    if !ix < 0 then invalid_arg ("Sir.find_func: no function " ^ name);
    let callee = st.vp.V.vfuncs.(!ix) in
    let n = List.length argv in
    let cai = if n = 0 then no_ints else Array.make n 0 in
    let caf = if n = 0 then no_flts else Array.make n 0. in
    List.iteri
      (fun k v ->
        let fp =
          if k < Array.length callee.V.vformals then
            match callee.V.vformals.(k) with
            | I.Fm_reg { fp; _ } | I.Fm_mem { fp; _ } -> fp
          else false
        in
        try if fp then caf.(k) <- D.as_flt v else cai.(k) <- D.as_int v
        with D.Error msg -> raise (I.Runtime_error msg))
      argv;
    exec_func st !ix cai caf;
    if st.ret_isf then D.Vflt st.ret_f else D.Vint st.ret_i

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Run a lowered program.  [faults] attaches injected ALAT interference
    for stress runs; the interference clock and victim selection match
    the oracle's exactly.  [recover] supplies a deoptimization plan:
    failed checks whose pc carries a descriptor finish their function in
    the unoptimized body instead of reloading. *)
let run_with ~pr ~fuel ?faults ?recover ~heap_bytes (p : V.program)
  : I.result =
  if p.V.vmain < 0 then error "program has no main function";
  (* a memory fault is the program's runtime error.  It becomes one
     here, outside the dispatch loop, so the ld.a arm-span trap still
     lets it through, as the oracle's does.  The image goes back to the
     pool however the run ends *)
  try
    let mem = Memory.create ~heap_bytes p.V.vsrc in
    let syms = p.V.vsrc.Sir.syms in
    let globals = Array.make (Symtab.count syms) (-1) in
    List.iter
      (fun g -> globals.(g) <- Memory.global_addr mem g)
      p.V.vsrc.Sir.globals;
    let st =
      { vp = p; mem; pr; found = Memory.found ();
        ctrs = { I.steps = 0; mem_loads = 0; mem_stores = 0; branches = 0;
                 calls = 0; check_stmts = 0; check_reloads = 0; deopts = 0 };
        out = Buffer.create 256; globals; rng = 88172645463325252; fuel;
        alat = Sem_alat.create ?faults ();
        ret_isf = false; ret_i = 0; ret_f = 0.; recover }
    in
    (match exec_func st p.V.vmain no_ints no_flts with
     | () -> Memory.release mem
     | exception e -> Memory.release mem; raise e);
    let ret = if st.ret_isf then I.Vflt st.ret_f else I.Vint st.ret_i in
    { I.ret; output = Buffer.contents st.out; counters = st.ctrs }
  with Memory.Fault msg -> raise (I.Runtime_error msg)

let run_program ?(fuel = 200_000_000) ?faults ?recover
    ?(heap_bytes = 24 * 1024 * 1024) (p : V.program) : I.result =
  run_with ~pr:no_recorder ~fuel ?faults ?recover ~heap_bytes p

(** Run profile-mode bytecode ({!Vmcode.profile}) from [main] into a
    fresh recorder. *)
let profile ?(fuel = 200_000_000) ?(heap_bytes = 24 * 1024 * 1024)
    (p : V.program) (lay : V.layout) : I.result * recorder =
  let pr = recorder lay (Array.length p.V.vfuncs) in
  let r = run_with ~pr ~fuel ~heap_bytes p in
  (r, pr)

(** Lower [p] and run [main] (one cheap pass; callers that execute the
    same program repeatedly should {!Vmcode.compile} once and use
    {!run_program}). *)
let run ?fuel ?faults ?recover ?heap_bytes (p : Sir.prog) : I.result =
  run_program ?fuel ?faults ?recover ?heap_bytes (Vmcode.compile p)

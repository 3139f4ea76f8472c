(** Frozen tree-walking reference interpreter for SIR.

    This is the seed interpreter, kept verbatim as the *semantic oracle*
    for the threaded-code vm ({!Vm}): the differential test suite runs
    every workload under every pipeline variant on both and asserts
    identical output, return value, and counters.  It walks the SIR tree
    directly — symbol-table lookups and hash tables on every variable
    access — so it is slow but obviously faithful to the language
    definition.  Do not optimize this module; optimize {!Vm} and prove
    it equivalent here. *)

open Spec_ir

type value = Vint of int | Vflt of float

exception Runtime_error of string

let error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

let as_int = function
  | Vint i -> i
  | Vflt f -> error "expected int value, got float %g" f

let as_flt = function
  | Vflt f -> f
  | Vint i -> error "expected float value, got int %d" i

type counters = {
  mutable steps : int;
  mutable mem_loads : int;
  mutable mem_stores : int;
  mutable branches : int;
  mutable calls : int;
  mutable check_stmts : int;
  mutable check_reloads : int;
}

type result = {
  ret : value;
  output : string;
  counters : counters;
}

type state = {
  prog : Sir.prog;
  mem : Memory.t;
  ctrs : counters;
  out : Buffer.t;
  mutable rng : int;
  mutable fuel : int;
  (* semantic ALAT: advanced loads arm an entry (frame serial, temp) ->
     address; stores invalidate matching addresses; a check reload is
     skipped when its entry survives.  No capacity limit (capacity
     effects belong to the machine model, not the language semantics),
     but a returning frame drops its entries, exactly as {!Sem_alat}
     does for the vm. *)
  alat : (int * int, int) Hashtbl.t;
  mutable frame_serial : int;
  (* injected ALAT interference (stress runs only); time counted in ALAT
     operations, mirroring Sem_alat so the vm and the oracle stay
     comparable *)
  finj : Spec_stress.Faults.injector option;
  mutable fevents : int;
}

type frame = {
  func : Sir.func;
  serial : int;
  regs : (int, value) Hashtbl.t;       (* register-resident vars *)
  addrs : (int, int) Hashtbl.t;        (* memory-resident locals -> address *)
}

(* Interference only removes entries: a faulted run reloads values that
   are current in memory, so observable behavior is unchanged. *)
let alat_interfere st =
  match st.finj with
  | None -> ()
  | Some inj ->
    st.fevents <- st.fevents + 1;
    Spec_stress.Faults.advance inj ~upto:st.fevents
      ~flush:(fun () -> Hashtbl.reset st.alat)
      ~invalidate:(fun rng ->
        let n = Hashtbl.length st.alat in
        if n > 0 then begin
          let k = Spec_stress.Srng.below rng n in
          let i = ref 0 and victim = ref None in
          Hashtbl.iter
            (fun key _ -> if !i = k then victim := Some key; incr i)
            st.alat;
          match !victim with
          | Some key -> Hashtbl.remove st.alat key
          | None -> ()
        end)

let alat_arm st (fr : frame) tvid addr =
  alat_interfere st;
  Hashtbl.replace st.alat (fr.serial, tvid) addr

let alat_check st (fr : frame) tvid addr =
  alat_interfere st;
  match Hashtbl.find_opt st.alat (fr.serial, tvid) with
  | Some a -> a = addr
  | None -> false

let alat_invalidate st addr =
  alat_interfere st;
  let stale =
    Hashtbl.fold
      (fun k a acc -> if a = addr then k :: acc else acc)
      st.alat []
  in
  List.iter (Hashtbl.remove st.alat) stale

let zero_of ty = if Types.is_fp ty then Vflt 0. else Vint 0

let spend st =
  st.ctrs.steps <- st.ctrs.steps + 1;
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then error "out of fuel (infinite loop?)"

let var_addr st frame vid =
  let v = Symtab.orig st.prog.Sir.syms vid in
  match v.Symtab.vstorage with
  | Symtab.Sglobal -> Memory.global_addr st.mem v.Symtab.vid
  | _ ->
    (match Hashtbl.find_opt frame.addrs v.Symtab.vid with
     | Some a -> a
     | None -> error "no stack slot for %s" v.Symtab.vname)

let read_reg st frame vid =
  let v = Symtab.orig st.prog.Sir.syms vid in
  match Hashtbl.find_opt frame.regs v.Symtab.vid with
  | Some x -> x
  | None -> zero_of v.Symtab.vty     (* uninitialized: deterministic zero *)

let write_reg st frame vid x =
  let v = Symtab.orig st.prog.Sir.syms vid in
  Hashtbl.replace frame.regs v.Symtab.vid x

let load_mem st ~spec ~site:_ ty addr =
  st.ctrs.mem_loads <- st.ctrs.mem_loads + 1;
  if Types.is_fp ty then
    Vflt (if spec then Memory.load_flt_spec st.mem addr
          else Memory.load_flt st.mem addr)
  else
    Vint (if spec then Memory.load_int_spec st.mem addr
          else Memory.load_int st.mem addr)

(** Direct load of a memory-resident variable: counter + typed cell read.
    Shared between ordinary [Lod] evaluation and the direct check-load
    reload path. *)
let load_var_raw st vid addr =
  st.ctrs.mem_loads <- st.ctrs.mem_loads + 1;
  let v = Symtab.orig st.prog.Sir.syms vid in
  if Types.is_fp v.Symtab.vty then Vflt (Memory.load_flt st.mem addr)
  else Vint (Memory.load_int st.mem addr)

let eval_binop op ty a b =
  match op, ty with
  | Sir.Add, Types.Tflt -> Vflt (as_flt a +. as_flt b)
  | Sir.Sub, Types.Tflt -> Vflt (as_flt a -. as_flt b)
  | Sir.Mul, Types.Tflt -> Vflt (as_flt a *. as_flt b)
  | Sir.Div, Types.Tflt ->
    let d = as_flt b in
    Vflt (as_flt a /. d)     (* IEEE semantics: inf/nan allowed *)
  | Sir.Add, _ -> Vint (as_int a + as_int b)
  | Sir.Sub, _ -> Vint (as_int a - as_int b)
  | Sir.Mul, _ -> Vint (as_int a * as_int b)
  | Sir.Div, _ ->
    let d = as_int b in
    if d = 0 then error "integer division by zero" else Vint (as_int a / d)
  | Sir.Rem, _ ->
    let d = as_int b in
    if d = 0 then error "integer remainder by zero" else Vint (as_int a mod d)
  | Sir.Band, _ -> Vint (as_int a land as_int b)
  | Sir.Bor, _ -> Vint (as_int a lor as_int b)
  | Sir.Bxor, _ -> Vint (as_int a lxor as_int b)
  | Sir.Shl, _ -> Vint (as_int a lsl (as_int b land 63))
  | Sir.Shr, _ -> Vint (as_int a asr (as_int b land 63))
  | (Sir.Lt | Sir.Le | Sir.Gt | Sir.Ge | Sir.Eq | Sir.Ne), _ ->
    let cmp =
      match a, b with
      | Vflt x, Vflt y -> compare x y
      | Vint x, Vint y -> compare x y
      | Vint x, Vflt y -> compare (float_of_int x) y
      | Vflt x, Vint y -> compare x (float_of_int y)
    in
    let r =
      match op with
      | Sir.Lt -> cmp < 0 | Sir.Le -> cmp <= 0
      | Sir.Gt -> cmp > 0 | Sir.Ge -> cmp >= 0
      | Sir.Eq -> cmp = 0 | Sir.Ne -> cmp <> 0
      | _ -> assert false
    in
    Vint (if r then 1 else 0)

let rec eval st frame ~spec (e : Sir.expr) : value =
  match e with
  | Sir.Const (Sir.Cint i) -> Vint i
  | Sir.Const (Sir.Cflt f) -> Vflt f
  | Sir.Lod vid ->
    if Symtab.is_mem st.prog.Sir.syms vid then
      load_var_raw st vid (var_addr st frame vid)
    else read_reg st frame vid
  | Sir.Ilod (ty, a, site) ->
    let addr = as_int (eval st frame ~spec a) in
    load_mem st ~spec ~site:(Some site) ty addr
  | Sir.Lda vid -> Vint (var_addr st frame vid)
  | Sir.Unop (Sir.Neg, Types.Tflt, e) -> Vflt (-.as_flt (eval st frame ~spec e))
  | Sir.Unop (Sir.Neg, _, e) -> Vint (- (as_int (eval st frame ~spec e)))
  | Sir.Unop (Sir.Lnot, _, e) ->
    Vint (if as_int (eval st frame ~spec e) = 0 then 1 else 0)
  | Sir.Unop (Sir.I2f, _, e) -> Vflt (float_of_int (as_int (eval st frame ~spec e)))
  | Sir.Unop (Sir.F2i, _, e) -> Vint (int_of_float (as_flt (eval st frame ~spec e)))
  | Sir.Binop (op, ty, a, b) ->
    let va = eval st frame ~spec a in
    let vb = eval st frame ~spec b in
    eval_binop op ty va vb

(** Shared ld.c structure: reload and re-arm only when the armed entry was
    invalidated by an intervening aliasing store (IA-64 semantics). *)
and exec_check st frame ~tvid ~vid ~addr ~reload =
  if not (alat_check st frame tvid addr) then begin
    st.ctrs.check_reloads <- st.ctrs.check_reloads + 1;
    write_reg st frame vid (reload ());
    alat_arm st frame tvid addr
  end

and exec_stmt st frame (s : Sir.stmt) : unit =
  spend st;
  if s.Sir.mark = Sir.Mchk then st.ctrs.check_stmts <- st.ctrs.check_stmts + 1;
  let spec = s.Sir.mark = Sir.Mcspec || s.Sir.mark = Sir.Msa in
  match s.Sir.kind with
  | Sir.Snop -> ()
  (* a check load of an indirect reference *)
  | Sir.Stid (vid, Sir.Ilod (ty, a, site))
    when s.Sir.mark = Sir.Mchk && not (Symtab.is_mem st.prog.Sir.syms vid) ->
    let tvid = (Symtab.orig st.prog.Sir.syms vid).Symtab.vid in
    let addr = as_int (eval st frame ~spec a) in
    exec_check st frame ~tvid ~vid ~addr ~reload:(fun () ->
        load_mem st ~spec:false ~site:(Some site) ty addr)
  (* same, for a check of a direct (global / address-taken) variable load *)
  | Sir.Stid (vid, Sir.Lod g)
    when s.Sir.mark = Sir.Mchk
         && (not (Symtab.is_mem st.prog.Sir.syms vid))
         && Symtab.is_mem st.prog.Sir.syms g ->
    let tvid = (Symtab.orig st.prog.Sir.syms vid).Symtab.vid in
    let addr = var_addr st frame g in
    exec_check st frame ~tvid ~vid ~addr ~reload:(fun () ->
        load_var_raw st g addr)
  | Sir.Stid (vid, e) ->
    let value = eval st frame ~spec e in
    if Symtab.is_mem st.prog.Sir.syms vid then begin
      let addr = var_addr st frame vid in
      st.ctrs.mem_stores <- st.ctrs.mem_stores + 1;
      alat_invalidate st addr;
      let v = Symtab.orig st.prog.Sir.syms vid in
      if Types.is_fp v.Symtab.vty then
        Memory.store_flt st.mem addr (as_flt value)
      else Memory.store_int st.mem addr (as_int value)
    end
    else begin
      write_reg st frame vid value;
      (* advanced loads arm the semantic ALAT *)
      (match s.Sir.mark, e with
       | (Sir.Madv | Sir.Msa), Sir.Ilod (_, a, _) ->
         let tvid = (Symtab.orig st.prog.Sir.syms vid).Symtab.vid in
         (try alat_arm st frame tvid (as_int (eval st frame ~spec a))
          with Runtime_error _ -> ())
       | (Sir.Madv | Sir.Msa), Sir.Lod g
         when Symtab.is_mem st.prog.Sir.syms g ->
         let tvid = (Symtab.orig st.prog.Sir.syms vid).Symtab.vid in
         alat_arm st frame tvid (var_addr st frame g)
       | _ -> ())
    end
  | Sir.Istr (ty, a, e, _site) ->
    let addr = as_int (eval st frame ~spec a) in
    let value = eval st frame ~spec e in
    st.ctrs.mem_stores <- st.ctrs.mem_stores + 1;
    alat_invalidate st addr;
    if Types.is_fp ty then Memory.store_flt st.mem addr (as_flt value)
    else Memory.store_int st.mem addr (as_int value)
  | Sir.Call { callee; args; ret; csite } ->
    let argv = List.map (eval st frame ~spec) args in
    st.ctrs.calls <- st.ctrs.calls + 1;
    let result = call st ~site:csite callee argv in
    (match ret with
     | Some r -> write_reg st frame r result
     | None -> ())

and call st ~site callee argv : value =
  match callee with
  | "malloc" ->
    (match argv with
     | [ Vint bytes ] -> Vint (Memory.malloc st.mem ~site bytes)
     | _ -> error "malloc expects one int")
  | "print_int" ->
    (match argv with
     | [ Vint i ] -> Buffer.add_string st.out (string_of_int i);
       Buffer.add_char st.out '\n'; Vint 0
     | _ -> error "print_int expects one int")
  | "print_flt" ->
    (match argv with
     | [ Vflt f ] -> Buffer.add_string st.out (Printf.sprintf "%.6g" f);
       Buffer.add_char st.out '\n'; Vint 0
     | _ -> error "print_flt expects one float")
  | "seed" ->
    (match argv with
     | [ Vint s ] -> st.rng <- s; Vint 0
     | _ -> error "seed expects one int")
  | "rnd" ->
    (match argv with
     | [ Vint m ] ->
       if m <= 0 then error "rnd expects a positive bound";
       st.rng <- (st.rng * 0x5851F42D4C957F2D + 0x14057B7EF767814F)
                 land max_int;
       Vint ((st.rng lsr 29) mod m)
     | _ -> error "rnd expects one int")
  | name -> call_user st name argv

and call_user st name argv : value =
  let f = Sir.find_func st.prog name in
  st.frame_serial <- st.frame_serial + 1;
  let frame =
    { func = f; serial = st.frame_serial; regs = Hashtbl.create 16;
      addrs = Hashtbl.create 8 }
  in
  let mark = Memory.stack_mark st.mem in
  (* stack slots for memory-resident locals *)
  List.iter
    (fun vid ->
      let v = Symtab.var st.prog.Sir.syms vid in
      if Symtab.is_mem st.prog.Sir.syms vid then
        Hashtbl.replace frame.addrs vid
          (Memory.push_frame_var st.mem vid (max Types.cell_size v.Symtab.vsize)))
    f.Sir.flocals;
  (* bind formals; address-taken formals spill to their slot *)
  (try
     List.iter2
       (fun vid value ->
         if Symtab.is_mem st.prog.Sir.syms vid then begin
           let v = Symtab.var st.prog.Sir.syms vid in
           let addr =
             Memory.push_frame_var st.mem vid (max Types.cell_size v.Symtab.vsize)
           in
           Hashtbl.replace frame.addrs vid addr;
           if Types.is_fp v.Symtab.vty then
             Memory.store_flt st.mem addr (as_flt value)
           else Memory.store_int st.mem addr (as_int value)
         end
         else Hashtbl.replace frame.regs vid value)
       f.Sir.fformals argv
   with Invalid_argument _ ->
     error "arity mismatch calling %s" name);
  let ret = exec_blocks st frame in
  (* the frame-exit rule; an empty table (every unoptimized run) skips
     the scan *)
  if Hashtbl.length st.alat > 0 then begin
    let dead =
      Hashtbl.fold
        (fun ((s, _) as k) _ acc -> if s = frame.serial then k :: acc else acc)
        st.alat []
    in
    List.iter (Hashtbl.remove st.alat) dead
  end;
  Memory.pop_frame st.mem mark;
  ret

and exec_blocks st frame : value =
  let f = frame.func in
  let rec run_block bid : value =
    let b = Sir.block f bid in
    if b.Sir.phis <> [] then
      error "interpreter cannot execute SSA-form code (phis present)";
    List.iter (exec_stmt st frame) b.Sir.stmts;
    spend st;
    match b.Sir.term with
    | Sir.Tgoto next -> run_block next
    | Sir.Tcond (c, t, e) ->
      st.ctrs.branches <- st.ctrs.branches + 1;
      let taken = as_int (eval st frame ~spec:false c) <> 0 in
      run_block (if taken then t else e)
    | Sir.Tret None -> Vint 0
    | Sir.Tret (Some e) -> eval st frame ~spec:false e
  in
  run_block Sir.entry_bid

(** Run [main].  [fuel] bounds the number of executed statements.
    [faults] attaches injected ALAT interference for stress runs. *)
let run ?(fuel = 200_000_000) ?faults ?(heap_bytes = 24 * 1024 * 1024)
    (p : Sir.prog) : result =
  if not (Hashtbl.mem p.Sir.funcs "main") then
    error "program has no main function";
  (* a memory fault is the program's runtime error; the image goes back
     to the pool however the run ends *)
  let mem =
    try Memory.create ~heap_bytes p
    with Memory.Fault msg -> raise (Runtime_error msg)
  in
  let st =
    { prog = p; mem;
      ctrs = { steps = 0; mem_loads = 0; mem_stores = 0; branches = 0;
               calls = 0; check_stmts = 0; check_reloads = 0 };
      out = Buffer.create 256; rng = 88172645463325252; fuel;
      alat = Hashtbl.create 32; frame_serial = 0;
      finj = faults; fevents = 0 }
  in
  let ret =
    match call_user st "main" [] with
    | v -> v
    | exception Memory.Fault msg ->
      Memory.release mem;
      raise (Runtime_error msg)
    | exception e -> Memory.release mem; raise e
  in
  Memory.release mem;
  { ret; output = Buffer.contents st.out; counters = st.ctrs }

(** Local (within-block) list scheduling for ITL.

    The paper's Figure 3 lists instruction scheduling among the consumers
    of the speculative framework; in ORC the scheduler is what finally
    hides the latency of the loads PRE could not remove.  This pass
    reorders each block by latency-weighted critical-path list scheduling
    so that independent work fills load-delay slots.

    Reordering discipline:
    - register true/anti/output dependences are respected;
    - memory-touching instructions (loads of any kind, stores, calls)
      keep their original relative order — this preserves ALAT and cache
      behaviour exactly, so the transformation is observationally
      invisible except in cycle counts.  Speculative *cross-store* load
      hoisting is the job of the PRE phase (which inserts the checks that
      make it safe); the scheduler only exploits the freedom that is
      already safe.

    Data layout: every array below is scratch shared by all blocks of
    one {!run} and grown on demand, so a block allocates little beyond
    its reordered list.  Per-register state counts only while its stamp is
    the current block's, and an edge mark only while it is the current
    instruction's tick, so nothing is cleared between blocks. *)

open Itl

type stats = { mutable blocks : int; mutable moved : int }

type scratch = {
  (* per register, valid while [rstamp.(r) = stamp] *)
  mutable rstamp : int array;
  mutable last_def : int array;     (* defining insn, or -1 *)
  mutable use_head : int array;     (* newest use since that def, or -1 *)
  (* the uses since each register's last def, as linked lists *)
  mutable use_insn : int array;
  mutable use_next : int array;
  mutable nuses : int;
  (* per instruction *)
  mutable ins : insn array;
  mutable mark : int array;         (* [tick] once its edge to the current
                                       insn exists *)
  mutable pstart : int array;       (* preds of j: pred.(pstart.(j) ..
                                       pstart.(j+1) - 1) *)
  mutable sstart : int array;       (* likewise for succ *)
  mutable npreds : int array;       (* unscheduled preds *)
  mutable height : int array;
  mutable heap : int array;         (* the ready set *)
  mutable order : int array;
  (* edges, in CSR form by destination and by source *)
  mutable pred : int array;
  mutable succ : int array;
  mutable nedges : int;
  mutable stamp : int;
  mutable tick : int;
}

let create () =
  { rstamp = [||]; last_def = [||]; use_head = [||];
    use_insn = Array.make 64 0; use_next = Array.make 64 0; nuses = 0;
    ins = [||]; mark = [||]; pstart = [||]; sstart = [||]; npreds = [||];
    height = [||]; heap = [||]; order = [||];
    pred = Array.make 64 0; succ = Array.make 64 0; nedges = 0;
    stamp = 0; tick = 0 }

(* [a] with at least [n] more cells, and at least twice as many *)
let grown a n = Array.append a (Array.make (max n (Array.length a)) 0)

let fit_regs s n =
  if Array.length s.rstamp < n then begin
    s.rstamp <- Array.make n (-1);
    s.last_def <- Array.make n 0;
    s.use_head <- Array.make n 0
  end

let fit_insns s n =
  if Array.length s.mark < n then begin
    let n = max n (2 * Array.length s.mark) in
    s.ins <- Array.make n (Mov (0, 0));
    s.mark <- Array.make n (-1);
    s.pstart <- Array.make (n + 1) 0;
    s.sstart <- Array.make (n + 1) 0;
    s.npreds <- Array.make n 0;
    s.height <- Array.make n 0;
    s.heap <- Array.make n 0;
    s.order <- Array.make n 0
  end

(* optimistic latency estimate, mirroring the machine model's L1 case *)
let latency = function
  | Ld { kind = Lchk; _ } -> 1
  | Ld { fp = true; _ } -> 9
  | Ld { fp = false; _ } -> 2
  | Alu ((Spec_ir.Sir.Lt | Spec_ir.Sir.Le | Spec_ir.Sir.Gt | Spec_ir.Sir.Ge
         | Spec_ir.Sir.Eq | Spec_ir.Sir.Ne), _, _, _, _) -> 1
  | Alu (_, true, _, _, _) | Un (_, true, _, _) -> 4
  | _ -> 1

(* ---- the dependence DAG ---- *)

(* edge i -> j, j being the instruction under scan, counted once *)
let edge s i =
  if s.mark.(i) <> s.tick then begin
    s.mark.(i) <- s.tick;
    let e = s.nedges in
    if e = Array.length s.pred then s.pred <- grown s.pred e;
    s.pred.(e) <- i;
    s.nedges <- e + 1
  end

let touch s r =
  if s.rstamp.(r) <> s.stamp then begin
    s.rstamp.(r) <- s.stamp;
    s.last_def.(r) <- -1;
    s.use_head.(r) <- -1
  end

(* RAW from the last def; [j] joins the uses since it *)
let use s j r =
  touch s r;
  let d = s.last_def.(r) in
  if d >= 0 then edge s d;
  let u = s.nuses in
  if u = Array.length s.use_insn then begin
    s.use_insn <- grown s.use_insn u;
    s.use_next <- grown s.use_next u
  end;
  s.use_insn.(u) <- j;
  s.use_next.(u) <- s.use_head.(r);
  s.use_head.(r) <- u;
  s.nuses <- u + 1

(* WAW from the last def, WAR from every use since it but [j]'s own *)
let def s j r =
  touch s r;
  let d = s.last_def.(r) in
  if d >= 0 then edge s d;
  let u = ref s.use_head.(r) in
  while !u >= 0 do
    let i = s.use_insn.(!u) in
    if i <> j then edge s i;
    u := s.use_next.(!u)
  done;
  s.use_head.(r) <- -1;
  s.last_def.(r) <- j

(* all uses before all defs, as a check load reads its destination *)
let scan s j = function
  | Movi (d, _) | Lea (d, _) -> def s j d
  | Mov (d, a) | Un (_, _, d, a) -> use s j a; def s j d
  | Ld { dst; addr; kind; _ } ->
    use s j addr;
    if kind = Lchk then use s j dst;
    def s j dst
  | Alu (_, _, d, a, b) -> use s j a; use s j b; def s j d
  | St { src; addr; _ } -> use s j src; use s j addr
  | Call { args; ret; _ } ->
    List.iter (use s j) args;
    (match ret with Some r -> def s j r | None -> ())

(* Fill [pred]/[pstart] for the block's [n] instructions in [ins]: RAW,
   WAW and WAR edges plus the chain of memory-touching instructions.
   Every edge goes forward, so the graph is a DAG. *)
let build_dag s n =
  s.stamp <- s.stamp + 1;
  s.nuses <- 0;
  s.nedges <- 0;
  let last_mem = ref (-1) in
  for j = 0 to n - 1 do
    s.tick <- s.tick + 1;
    s.pstart.(j) <- s.nedges;
    let i = s.ins.(j) in
    scan s j i;
    match i with
    | Ld _ | St _ | Call _ ->
      if !last_mem >= 0 then edge s !last_mem;
      last_mem := j
    | Movi _ | Mov _ | Lea _ | Alu _ | Un _ -> ()
  done;
  s.pstart.(n) <- s.nedges

(* Heights in one backward sweep (every succ of j lies above it, so
   [height.(j)] holds their maximum when the sweep reaches j), then the
   succ lists by transposing the pred lists. *)
let finish_dag s n =
  let ne = s.nedges in
  if Array.length s.succ < ne then s.succ <- grown s.succ ne;
  Array.fill s.height 0 n 0;
  Array.fill s.sstart 0 (n + 1) 0;
  for j = n - 1 downto 0 do
    let h = s.height.(j) + latency s.ins.(j) in
    s.height.(j) <- h;
    s.npreds.(j) <- s.pstart.(j + 1) - s.pstart.(j);
    for e = s.pstart.(j) to s.pstart.(j + 1) - 1 do
      let i = s.pred.(e) in
      if h > s.height.(i) then s.height.(i) <- h;
      s.sstart.(i) <- s.sstart.(i) + 1
    done
  done;
  (* each [sstart.(i)] becomes the end of i's range, then its start as
     the range fills downwards *)
  for i = 1 to n do s.sstart.(i) <- s.sstart.(i) + s.sstart.(i - 1) done;
  for j = 0 to n - 1 do
    for e = s.pstart.(j) to s.pstart.(j + 1) - 1 do
      let i = s.pred.(e) in
      let k = s.sstart.(i) - 1 in
      s.sstart.(i) <- k;
      s.succ.(k) <- j
    done
  done

(* ---- the ready set: a binary heap, greatest height first, ties to the
   lowest index ---- *)

let first (h : int array) a b =
  let ha = h.(a) and hb = h.(b) in
  ha > hb || (ha = hb && a < b)

let push s size j =
  let hp = s.heap and h = s.height in
  let k = ref size in
  while !k > 0 && first h j hp.((!k - 1) / 2) do
    hp.(!k) <- hp.((!k - 1) / 2);
    k := (!k - 1) / 2
  done;
  hp.(!k) <- j

(* remove the top of a heap of [size] > 0 entries *)
let pop s size =
  let hp = s.heap and h = s.height in
  let top = hp.(0) in
  let size = size - 1 in
  let x = hp.(size) in
  let k = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !k) + 1 in
    let c = if l + 1 < size && first h hp.(l + 1) hp.(l) then l + 1 else l in
    if c < size && first h hp.(c) x then begin
      hp.(!k) <- hp.(c);
      k := c
    end
    else sifting := false
  done;
  hp.(!k) <- x;
  top

(* greedy list scheduling into [order]; returns the number of moved
   instructions *)
let pick_all s n =
  let size = ref 0 in
  for j = 0 to n - 1 do
    if s.npreds.(j) = 0 then begin push s !size j; incr size end
  done;
  let moved = ref 0 in
  for pos = 0 to n - 1 do
    let j = pop s !size in
    decr size;
    s.order.(pos) <- j;
    if j <> pos then incr moved;
    for e = s.sstart.(j) to s.sstart.(j + 1) - 1 do
      let k = s.succ.(e) in
      let p = s.npreds.(k) - 1 in
      s.npreds.(k) <- p;
      if p = 0 then begin push s !size k; incr size end
    done
  done;
  !moved

let schedule_block s (st : stats) (b : mblock) =
  let n = List.length b.insns in
  if n > 1 then begin
    st.blocks <- st.blocks + 1;
    fit_insns s n;
    List.iteri (fun j i -> s.ins.(j) <- i) b.insns;
    build_dag s n;
    finish_dag s n;
    let moved = pick_all s n in
    if moved > 0 then begin
      st.moved <- st.moved + moved;
      let l = ref [] in
      for pos = n - 1 downto 0 do l := s.ins.(s.order.(pos)) :: !l done;
      b.insns <- !l
    end
  end

(** Schedule every block of every function in place. *)
let run (mp : mprog) : stats =
  let st = { blocks = 0; moved = 0 } in
  let s = create () in
  Hashtbl.iter
    (fun _ (f : mfunc) ->
      fit_regs s f.mf_nregs;
      Array.iter (schedule_block s st) f.mf_blocks)
    mp.mp_funcs;
  st

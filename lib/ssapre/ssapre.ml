(** Speculative SSAPRE: the six-step SSAPRE algorithm (Kennedy et al.,
    TOPLAS 21(3)) extended with the paper's control- and data-speculation
    support.

    Φ-Insertion and Rename follow the enhanced algorithms of the paper's
    Appendices A and B: definition chains are traced *through* speculative
    weak updates (unflagged χs), which exposes speculatively redundant
    occurrences; CodeMotion then emits check statements (ld.c) for
    speculative reloads and marks the reaching computations as advanced
    loads (ld.a).  Control speculation permits insertion at non-downsafe
    Φs when the edge profile says the insertion paths are cold.

    The work follows occurrences and kills, not statements × candidates:
    candidates are interned as ints, Rename asks a statement only about
    the live items filed under its kill keys and records weak updates
    lazily, and Φ-insertion creates only the Φs a real occurrence can
    reach (DESIGN.md §3.11).

    The engine processes one function at a time, assuming HSSA form with
    χ/μ lists and speculation flags assigned.  Its rewrites deliberately
    produce "flat" (non-SSA-maintained) temporaries; the pipeline
    de-versions the function immediately afterwards (see
    [Spec_ssa.Out_of_ssa] for why this is sound). *)

open Spec_ir
open Spec_cfg
open Spec_spec

type config = {
  mode : Flags.mode;
  control_spec : bool;
  cspec_always : bool;
      (** force insertion at non-downsafe Φs regardless of profile (tests) *)
  cspec_ratio : float;
      (** insert speculatively when insertion-edge frequency is below this
          fraction of the Φ block's frequency *)
  arith_pre : bool;
  alias_threshold : float;
      (** alias relations observed in at most this fraction of profiled
          executions are still speculated over (see [Spec_spec.Kills]) *)
  adversary : Flags.perturbation option;
      (** stress harness: corrupt the kill-classification verdicts (see
          [Spec_spec.Kills.create]) *)
}

let default_config mode =
  { mode; control_spec = true; cspec_always = false; cspec_ratio = 0.5;
    arith_pre = true; alias_threshold = 0.; adversary = None }

(* ------------------------------------------------------------------ *)
(* Occurrence structures                                               *)
(* ------------------------------------------------------------------ *)

type place = Pstmt of Sir.stmt | Pterm

type real_occ = {
  ro_bb : int;
  ro_place : place;
  ro_idx : int;                    (* nth same-key candidate in the place *)
  ro_expr : Sir.expr;
  mutable ro_def : def option;
  mutable ro_weak : Sir.stmt option;
      (* the latest weak update crossed since [ro_def], if any *)
  mutable ro_used : bool;
}

and phi_occ = {
  po_bb : int;
  po_opnds : opnd array;
  mutable po_ds : bool;
  mutable po_cba : bool;
  mutable po_later : bool;
  mutable po_wba : bool;
  mutable po_cspec : bool;
  mutable po_live : bool;
}

and opnd = {
  mutable op_def : def option;        (* None = bottom *)
  mutable op_has_real_use : bool;
  mutable op_reached : bool;          (* Rename reached this edge *)
  mutable op_weak : Sir.stmt option;  (* latest weak update on this edge *)
  mutable op_insert : bool;
}

and def = Dreal of real_occ | Dphi of phi_occ

type item = {
  it_id : int;                           (* dense index, creation order *)
  it_key : int;                          (* [Candidates] key *)
  it_proto : Sir.expr;                   (* deversioned representative *)
  it_target : Kills.target;
  it_leaves : int list;                  (* orig ids of pure leaves *)
  mutable it_reals : real_occ list;      (* reverse collection order *)
  mutable it_phis : phi_occ list;        (* see [iter_phis] for the order *)
  mutable it_strong : int list;          (* kill keys that may kill it *)
  mutable it_weak : int list;            (* kill keys whose weak updates reach it *)
  mutable it_temp : int;                 (* temp var id, -1 until created *)
  mutable it_has_checks : bool;
}

(* ------------------------------------------------------------------ *)
(* Per-function context                                                *)
(* ------------------------------------------------------------------ *)

type work = {
  mutable queries : int;
  mutable pushes : int;
  mutable phis : int;
  mutable trace_steps : int;
}

let new_work () = { queries = 0; pushes = 0; phis = 0; trace_steps = 0 }

type vdef =
  | Vphi of Sir.phi * int
  | Vchi of { stmt : Sir.stmt; chi : Sir.chi; bb : int;
             mutable traced_by : int (* last item whose trace passed *) }
  | Vdirect
  | Vnone

type fctx = {
  prog : Sir.prog;
  func : Sir.func;
  dom : Dom.t;
  cfg : config;
  kctx : Kills.ctx;
  cands : Candidates.t;
  items : (int, item) Hashtbl.t;
  mutable item_list : item list;
  (* occurrences grouped by statement id / terminator block *)
  stmt_occs : (int, (item * real_occ) list) Hashtbl.t;
  term_occs : (int, (item * real_occ) list) Hashtbl.t;
  (* block -> the item phis placed there *)
  mutable bphis : (item * phi_occ) list array;
  (* version vid -> its definition, dense over [vdef_lo ..] (the
     function's own versions); everything below is defined elsewhere *)
  mutable vdefs : vdef array;
  mutable vdef_lo : int;
  (* versions current at block ends, dense rows over the interned proto
     variables: ev_rows.(bb * ev_n + slot), -1 = version 0 (the original) *)
  ev_index : int array;            (* orig vid -> slot, or -1; pooled *)
  ev_origs : int array;            (* slot -> orig vid; pooled *)
  mutable ev_n : int;
  mutable ev_rows : int array;     (* pooled *)
  mutable stats_checks : int;
  mutable stats_reloads : int;
  mutable stats_saves : int;
  mutable stats_inserts : int;
  mutable stats_cspec_phis : int;
  work : work;
}

let syms_of ctx = ctx.prog.Sir.syms

(* ---- step 0: collect candidates & auxiliary tables ---- *)

let get_item ctx key target expr =
  match Hashtbl.find_opt ctx.items key with
  | Some it -> it
  | None ->
    let syms = syms_of ctx in
    let proto =
      Sir.map_expr_uses (fun v -> (Symtab.orig syms v).Symtab.vid) expr
    in
    let it =
      { it_id = Hashtbl.length ctx.items; it_key = key; it_proto = proto;
        it_target = target;
        it_leaves = Candidates.leaves syms expr; it_reals = [];
        it_phis = []; it_strong = []; it_weak = []; it_temp = -1;
        it_has_checks = false }
    in
    Hashtbl.replace ctx.items key it;
    ctx.item_list <- it :: ctx.item_list;
    it

(* The rank of the next candidate with [key] in one statement or
   terminator; [counts] is that place's (key, count) list. *)
let next_idx counts key =
  let i = match List.assoc_opt key !counts with Some i -> i | None -> 0 in
  counts := (key, i + 1) :: !counts;
  i

let collect_occurrences ctx =
  (* only heuristic rule 1 reads site addresses *)
  let rule1 = ctx.cfg.mode = Flags.Heuristic_spec in
  let register e =
    if rule1 then
      Sir.iter_subexprs
        (function
          | Sir.Ilod (_, a, site) -> Kills.register_site_addr ctx.kctx site a
          | _ -> ())
        e
  in
  (* the occurrences of one place, prepended to [occs] *)
  let collect (b : Sir.bb) place counts occs e =
    Candidates.iter_candidates ctx.cands
      (fun key target c ->
        let it = get_item ctx key target c in
        let occ =
          { ro_bb = b.Sir.bid; ro_place = place; ro_idx = next_idx counts key;
            ro_expr = c; ro_def = None; ro_weak = None; ro_used = false }
        in
        it.it_reals <- occ :: it.it_reals;
        occs := (it, occ) :: !occs)
      e
  in
  let file tbl id occs = if occs <> [] then Hashtbl.replace tbl id (List.rev occs) in
  Vec.iter
    (fun (b : Sir.bb) ->
      List.iter
        (fun (s : Sir.stmt) ->
          (* register istore address keys for heuristic rule 1 *)
          (match s.Sir.kind with
           | Sir.Istr (_, a, _, site) when rule1 ->
             Kills.register_site_addr ctx.kctx site a
           | _ -> ());
          let exprs = Sir.stmt_exprs s.Sir.kind in
          List.iter register exprs;
          if s.Sir.mark = Sir.Mnone then begin
            let counts = ref [] and occs = ref [] in
            List.iter (collect b (Pstmt s) counts occs) exprs;
            file ctx.stmt_occs s.Sir.sid !occs
          end)
        b.Sir.stmts;
      (* terminator occurrences *)
      let counts = ref [] and occs = ref [] in
      List.iter
        (fun e ->
          register e;
          collect b Pterm counts occs e)
        (Sir.term_exprs b.Sir.term);
      file ctx.term_occs b.Sir.bid !occs)
    ctx.func.Sir.fblocks;
  ctx.item_list <- List.rev ctx.item_list;
  List.iter (fun it -> it.it_reals <- List.rev it.it_reals) ctx.item_list

(* The versions a function defines were allocated after everything else
   in its symbol table, so the table spans only their id range. *)
let build_version_def ctx =
  let defs = ref [] and lo = ref (Symtab.count (syms_of ctx)) in
  let def v d =
    defs := (v, d) :: !defs;
    if v < !lo then lo := v
  in
  Vec.iter
    (fun (b : Sir.bb) ->
      List.iter (fun (p : Sir.phi) -> def p.Sir.phi_lhs (Vphi (p, b.Sir.bid)))
        b.Sir.phis;
      List.iter
        (fun (s : Sir.stmt) ->
          (match Sir.stmt_def s.Sir.kind with
           | Some v -> def v Vdirect
           | None -> ());
          List.iter
            (fun (c : Sir.chi) ->
              def c.Sir.chi_lhs
                (Vchi { stmt = s; chi = c; bb = b.Sir.bid; traced_by = -1 }))
            s.Sir.chis)
        b.Sir.stmts)
    ctx.func.Sir.fblocks;
  let lo = !lo in
  let vdefs = Array.make (Symtab.count (syms_of ctx) - lo) Vnone in
  List.iter (fun (v, d) -> vdefs.(v - lo) <- d) (List.rev !defs);
  ctx.vdefs <- vdefs;
  ctx.vdef_lo <- lo

let vdef ctx v = if v < ctx.vdef_lo then Vnone else ctx.vdefs.(v - ctx.vdef_lo)
(* Intern the variables the items' prototype expressions read; only their
   block-end versions are ever queried (by [assign_phi_opnds]). *)
let intern_proto_vars ctx =
  List.iter
    (fun it ->
      Sir.iter_expr_uses
        (fun ov ->
          if ctx.ev_index.(ov) < 0 then begin
            ctx.ev_index.(ov) <- ctx.ev_n;
            ctx.ev_origs.(ctx.ev_n) <- ov;
            ctx.ev_n <- ctx.ev_n + 1
          end)
        it.it_proto)
    ctx.item_list

(* versions of the interned proto variables current at each block's end *)
let build_end_versions ?formals ctx =
  let syms = syms_of ctx in
  let nb = Sir.n_blocks ctx.func in
  let ev_n = ctx.ev_n in
  let rows = Scratch.take_ints (max (nb * ev_n) 1) in
  Array.fill rows 0 (nb * ev_n) (-1);
  ctx.ev_rows <- rows;
  if ev_n > 0 then begin
    let stacks : int list array = Array.make ev_n [] in
    let orig_of v = (Symtab.orig syms v).Symtab.vid in
    let formal_v1s =
      (* formals were renamed to version 1 at entry; the SSA builder hands
         us the mapping, sparing a scan of the whole symbol table *)
      match formals with
      | Some l -> List.map snd l
      | None ->
        let acc = ref [] in
        Vec.iter
          (fun (v : Symtab.var) ->
            if v.Symtab.vver = 1
               && List.exists
                    (fun fv -> orig_of fv = v.Symtab.vorig)
                    ctx.func.Sir.fformals
            then acc := v.Symtab.vid :: !acc)
          syms.Symtab.vars;
        List.rev !acc
    in
    let rec walk bid =
      let b = Sir.block ctx.func bid in
      let pushed = ref [] in
      let def v =
        let k = ctx.ev_index.(orig_of v) in
        if k >= 0 then begin
          stacks.(k) <- v :: stacks.(k);
          pushed := k :: !pushed
        end
      in
      List.iter (fun (p : Sir.phi) -> def p.Sir.phi_lhs) b.Sir.phis;
      if bid = Sir.entry_bid then List.iter def formal_v1s;
      List.iter
        (fun (s : Sir.stmt) ->
          (match Sir.stmt_def s.Sir.kind with Some v -> def v | None -> ());
          List.iter (fun (c : Sir.chi) -> def c.Sir.chi_lhs) s.Sir.chis)
        b.Sir.stmts;
      (* snapshot the tops into this block's row *)
      let base = bid * ev_n in
      for k = 0 to ev_n - 1 do
        match stacks.(k) with
        | v :: _ -> rows.(base + k) <- v
        | [] -> ()
      done;
      List.iter walk ctx.dom.Dom.children.(bid);
      List.iter
        (fun k ->
          match stacks.(k) with
          | _ :: rest -> stacks.(k) <- rest
          | [] -> assert false)
        !pushed
    in
    walk Sir.entry_bid
  end

let version_at_end ctx bid orig =
  let k = ctx.ev_index.(orig) in
  if k < 0 then orig
  else
    match ctx.ev_rows.(bid * ctx.ev_n + k) with
    | -1 -> orig
    | v -> v

(* ---- step 1: Phi insertion ---- *)

(* Control speculation may make a Φ with no real occurrence behind it
   "safe" (see [cspec_allowed]) when the frequencies of a join's
   predecessors add up to less than [cspec_ratio] of the join's own.
   Pruning such Φs could change what their users decide, so a function
   with any such join keeps every Φ. *)
let cspec_prone ctx =
  ctx.cfg.control_spec
  && (ctx.cfg.cspec_always
      || Vec.exists
           (fun (b : Sir.bb) ->
             b.Sir.preds <> []
             && b.Sir.freq > 0.
             && List.fold_left
                  (fun acc p -> acc +. (Sir.block ctx.func p).Sir.freq)
                  0. b.Sir.preds
                < ctx.cfg.cspec_ratio *. b.Sir.freq)
           ctx.func.Sir.fblocks)

(* Rank of every block's strongly connected component, sinks first: an
   edge never leads to a higher rank, so a block reaches only blocks of
   rank at most its own. *)
let scc_ranks (f : Sir.func) =
  let n = Sir.n_blocks f in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Bytes.make n '\000' in
  let rank = Array.make n 0 in
  let stack = ref [] and next = ref 0 and nscc = ref 0 in
  let rec visit v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    Bytes.set on_stack v '\001';
    let edge w =
      if index.(w) < 0 then begin
        visit w;
        low.(v) <- min low.(v) low.(w)
      end
      else if Bytes.get on_stack w = '\001' then
        low.(v) <- min low.(v) index.(w)
    in
    (match (Sir.block f v).Sir.term with
     | Sir.Tgoto w -> edge w
     | Sir.Tcond (_, t, e) ->
       edge t;
       if e <> t then edge e
     | Sir.Tret _ -> ());
    if low.(v) = index.(v) then begin
      let rec pop () =
        match !stack with
        | w :: rest ->
          stack := rest;
          Bytes.set on_stack w '\000';
          rank.(w) <- !nscc;
          if w <> v then pop ()
        | [] -> assert false
      in
      pop ();
      incr nscc
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then visit v
  done;
  rank

(* Phi insertion with one dense worklist per item.  The reference set is

     E ∪ DF+(occ_blocks ∪ E)

   where E is the set of phi blocks reached by the Appendix-A traces
   (definition chains followed *through* speculative weak updates).
   Since iterated dominance frontiers distribute over union this equals
   the formulation DF+(occ) ∪ E ∪ DF+(E).  One queue plus two flag rows
   ([queued] = ever enqueued, [has] = in the result) replace per-item
   association lists; the traces all run before the DF propagation, so
   [has] doubles as the trace-visited set.

   Only the Φs a real occurrence of the item can reach are created.  A
   Φ no real occurrence feeds never becomes WillBeAvail (clearing Later
   needs an operand with a real use), and its users decide the same way
   whether an operand is ⊥ or such a Φ: both are inserted at, both count
   as "needs insertion" for control speculation, and both make a
   non-downsafe user unavailable.  So the traces stop at blocks no
   occurrence can reach — everything further up a definition chain
   reaches the block it defines for, so it cannot be reached either —
   and the occurrence blocks' reach is over-approximated by SCC rank.
   The Φs dropped this way, and the Φs in the dominance frontiers of
   the dropped trace blocks, all lie outside the reach of every
   occurrence or are fed by no occurrence, and the Rename stack at their
   blocks then reads ⊥ or a Φ just as unavailable.  [cspec_prone]
   functions keep every Φ. *)
let insert_phis ctx =
  let nb = Sir.n_blocks ctx.func in
  let queue = Scratch.take_ints nb in
  let queued = Scratch.take_bytes nb in
  let has = Scratch.take_bytes nb in
  let rank = if cspec_prone ctx then None else Some (scc_ranks ctx.func) in
  let bphis = Array.make nb [] in
  List.iter
    (fun (it : item) ->
      let tail = ref 0 in
      let enqueue b =
        if Bytes.unsafe_get queued b = '\000' then begin
          Bytes.unsafe_set queued b '\001';
          queue.(!tail) <- b;
          incr tail
        end
      in
      let add_result b =
        if Bytes.unsafe_get has b = '\000' then begin
          Bytes.unsafe_set has b '\001';
          enqueue b
        end
      in
      let reach =
        match rank with
        | None -> max_int
        | Some r ->
          List.fold_left (fun m (o : real_occ) -> max m r.(o.ro_bb)) (-1)
            it.it_reals
      in
      let reachable b =
        match rank with None -> true | Some r -> r.(b) <= reach
      in
      (* Appendix A: trace a version's definition through speculative weak
         updates; phi blocks reached join the result (and the queue). *)
      let rec trace v =
        ctx.work.trace_steps <- ctx.work.trace_steps + 1;
        match vdef ctx v with
        | Vnone | Vdirect -> ()
        | Vphi (p, bb) ->
          if reachable bb && Bytes.unsafe_get has bb = '\000' then begin
            add_result bb;
            Array.iter trace p.Sir.phi_args
          end
        | Vchi ({ stmt = s; chi = c; bb; _ } as d) ->
          if reachable bb && d.traced_by <> it.it_id then begin
            d.traced_by <- it.it_id;
            let weak =
              match it.it_target with
              | Kills.Tsite _ when Symtab.is_virtual (syms_of ctx) c.Sir.chi_var
                ->
                ctx.work.queries <- ctx.work.queries + 1;
                Kills.classify ctx.kctx it.it_target s = Kills.Kweak
              | _ -> not c.Sir.chi_spec
            in
            if weak then trace c.Sir.chi_rhs
          end
      in
      (* occurrence blocks seed the DF propagation but are not results *)
      List.iter (fun (o : real_occ) -> enqueue o.ro_bb) it.it_reals;
      List.iter
        (fun (occ : real_occ) ->
          Sir.iter_expr_uses trace occ.ro_expr;
          (* the memory dimension: trace the virtual variable's chain from
             this occurrence's mu operand *)
          match it.it_target, occ.ro_place with
          | Kills.Tsite _site, Pstmt s ->
            List.iter
              (fun (m : Sir.mu) ->
                if Symtab.is_virtual (syms_of ctx) m.Sir.mu_var then
                  trace m.Sir.mu_opnd)
              s.Sir.mus
          | Kills.Tvar _, Pstmt s ->
            List.iter (fun (m : Sir.mu) -> trace m.Sir.mu_opnd) s.Sir.mus
          | _ -> ())
        it.it_reals;
      let head = ref 0 in
      while !head < !tail do
        let x = queue.(!head) in
        incr head;
        List.iter add_result ctx.dom.Dom.df.(x)
      done;
      (* create phis in queue (= discovery) order: deterministic *)
      let tbl = ref None in
      for i = 0 to !tail - 1 do
        let bb = queue.(i) in
        if Bytes.unsafe_get has bb = '\001' then begin
          let n = List.length (Sir.block ctx.func bb).Sir.preds in
          if n > 0 then begin
            let phi =
              { po_bb = bb;
                po_opnds =
                  Array.init n (fun _ ->
                      { op_def = None; op_has_real_use = false;
                        op_reached = false; op_weak = None;
                        op_insert = false });
                po_ds = true; po_cba = true; po_later = true;
                po_wba = false; po_cspec = false; po_live = false }
            in
            let t =
              match !tbl with
              | Some t -> t
              | None ->
                let t = Hashtbl.create 4 in
                tbl := Some t;
                t
            in
            Hashtbl.replace t bb phi;
            bphis.(bb) <- (it, phi) :: bphis.(bb);
            ctx.work.phis <- ctx.work.phis + 1
          end
        end
      done;
      (match !tbl with
       | Some t -> it.it_phis <- List.rev (Hashtbl.fold (fun _ p l -> p :: l) t [])
       | None -> ());
      for i = 0 to !tail - 1 do
        let b = queue.(i) in
        Bytes.unsafe_set queued b '\000';
        Bytes.unsafe_set has b '\000'
      done)
    ctx.item_list;
  ctx.bphis <- bphis;
  Scratch.give_ints queue;
  Scratch.give_bytes queued;
  Scratch.give_bytes has

(* ---- step 2: rename (event-driven walk) ---- *)

(* Rename walks the dominator tree keeping, per item, only the top of its
   SSAPRE stack; an undo log restores the tops, weak records and live
   lists when the walk leaves a block.

   Kills are sparse.  Every item is filed under its kill keys
   ([Kills.target_keys] plus its operand variables), and a statement
   asks [Kills.classify] only about the live items filed under its
   strong keys ([Kills.stmt_keys]); each key keeps the list of items
   that became live since it last visited them, so a class killed
   wholesale touches each item once per revival.  A weak verdict pushes
   nothing: the statement is recorded as the latest weak update of each
   of its weak keys (or of the item itself, when an adversary turned a
   strong verdict weak), with the walk's clock.  Code motion reads only
   whether an occurrence's or operand's weak list is empty and what its
   head is; both follow from the latest record newer than the stack top.

   The clock ticks before a block's Φs, before a statement's occurrences
   and again before its kills, so a kill's records are newer than the
   occurrences of its own statement and no newer than the entries its
   strong verdicts push. *)

type entry = Ebot | Ereal of real_occ | Ephi of phi_occ

type undo =
  | Utop of int * entry * int       (* item, previous top and its time *)
  | Uown of int * int * Sir.stmt    (* item, previous own weak update *)
  | Uweak of int * int * Sir.stmt   (* kill key, previous weak update *)
  | Ulive of int * int list         (* kill key, previous live list *)

(* placeholder for "no weak update yet"; read only when a time says so *)
let no_stmt =
  { Sir.sid = -1; kind = Sir.Snop; mus = []; chis = []; mark = Sir.Mnone;
    check_of = -1; deopt = None }

let rename ctx =
  let items = Array.of_list ctx.item_list in
  let n_items = Array.length items in
  let keys = Kills.Key_tbl.create 64 in
  let key_id k =
    match Kills.Key_tbl.find_opt keys k with
    | Some i -> i
    | None ->
      let i = Kills.Key_tbl.length keys in
      Kills.Key_tbl.add keys k i;
      i
  in
  Array.iter
    (fun it ->
      let strong, weak = Kills.target_keys ctx.kctx it.it_target in
      let leaves = List.map (fun v -> Kills.Kvar v) it.it_leaves in
      it.it_strong <- List.map key_id (leaves @ strong);
      it.it_weak <- List.map key_id (leaves @ weak))
    items;
  let n_keys = Kills.Key_tbl.length keys in
  let top = Array.make n_items Ebot and top_at = Array.make n_items 0 in
  let own_at = Array.make n_items 0 and own_by = Array.make n_items no_stmt in
  let weak_at = Array.make n_keys 0 and weak_by = Array.make n_keys no_stmt in
  let live = Array.make n_keys [] in
  let asked = Array.make n_items 0 in        (* clock of the last verdict *)
  let listed = Array.make n_items 0 in       (* pass of the last list scan *)
  let pass = ref 0 in
  let clock = ref 0 in
  let log = ref [] in
  let live_top i = match top.(i) with Ebot -> false | Ereal _ | Ephi _ -> true in
  let set_top i e =
    log := Utop (i, top.(i), top_at.(i)) :: !log;
    top.(i) <- e;
    top_at.(i) <- !clock;
    ctx.work.pushes <- ctx.work.pushes + 1
  in
  let set_live k l =
    log := Ulive (k, live.(k)) :: !log;
    live.(k) <- l
  in
  (* push a live entry; an item coming back to life joins the live lists
     of its strong keys *)
  let push_live i e =
    let revived = not (live_top i) in
    set_top i e;
    if revived then List.iter (fun k -> set_live k (i :: live.(k))) items.(i).it_strong
  in
  let latest_weak i =
    let at = ref own_at.(i) and by = ref own_by.(i) in
    List.iter
      (fun k ->
        if weak_at.(k) > !at then begin
          at := weak_at.(k);
          by := weak_by.(k)
        end)
      items.(i).it_weak;
    if !at > top_at.(i) then Some !by else None
  in
  let process_occ (it : item) (occ : real_occ) =
    let i = it.it_id in
    (match top.(i) with
     | Ebot ->
       occ.ro_def <- None;
       occ.ro_weak <- None
     | Ereal d ->
       occ.ro_def <- Some (Dreal d);
       occ.ro_weak <- latest_weak i
     | Ephi p ->
       occ.ro_def <- Some (Dphi p);
       occ.ro_weak <- latest_weak i);
    (* the occurrence re-establishes the value: checks cover the weaks *)
    push_live i (Ereal occ)
  in
  let seed_not_downsafe i =
    match top.(i) with Ephi phi -> phi.po_ds <- false | _ -> ()
  in
  let verdict (it : item) s =
    ctx.work.queries <- ctx.work.queries + 1;
    let leaf =
      List.fold_left
        (fun acc leaf -> Kills.worst acc (Kills.classify_leaf ctx.kctx leaf s))
        Kills.Knone it.it_leaves
    in
    if leaf = Kills.Kstrong then leaf
    else Kills.worst leaf (Kills.classify ctx.kctx it.it_target s)
  in
  (* ask [s] about the live items of one strong key, dropping the dead
     and duplicate entries from its list *)
  let visit s k =
    incr pass;
    let changed = ref false in
    let kept =
      List.filter
        (fun i ->
          let keep =
            listed.(i) <> !pass
            && live_top i
            && begin
              listed.(i) <- !pass;
              if asked.(i) <> !clock then begin
                asked.(i) <- !clock;
                match verdict items.(i) s with
                | Kills.Kstrong ->
                  seed_not_downsafe i;
                  set_top i Ebot
                | Kills.Kweak ->
                  log := Uown (i, own_at.(i), own_by.(i)) :: !log;
                  own_at.(i) <- !clock;
                  own_by.(i) <- s
                | Kills.Knone -> ()
              end;
              live_top i
            end
          in
          if not keep then changed := true;
          keep)
        live.(k)
    in
    if !changed then set_live k kept
  in
  let process_kills (s : Sir.stmt) =
    let strong, weak = Kills.stmt_keys ctx.kctx s in
    List.iter
      (fun k ->
        match Kills.Key_tbl.find_opt keys k with
        | Some k -> visit s k
        | None -> ())
      strong;
    List.iter
      (fun k ->
        match Kills.Key_tbl.find_opt keys k with
        | Some k ->
          log := Uweak (k, weak_at.(k), weak_by.(k)) :: !log;
          weak_at.(k) <- !clock;
          weak_by.(k) <- s
        | None -> ())
      weak
  in
  let assign_phi_opnds bid =
    List.iter
      (fun succ ->
        let sb = Sir.block ctx.func succ in
        let pred_index =
          let rec idx i = function
            | [] -> -1
            | p :: _ when p = bid -> i
            | _ :: rest -> idx (i + 1) rest
          in
          idx 0 sb.Sir.preds
        in
        if pred_index >= 0 then
          List.iter
            (fun ((it : item), phi) ->
              let op = phi.po_opnds.(pred_index) in
              op.op_reached <- true;
              let i = it.it_id in
              match top.(i) with
              | Ebot -> op.op_def <- None
              | Ereal occ ->
                op.op_def <- Some (Dreal occ);
                op.op_has_real_use <- true;
                op.op_weak <- latest_weak i
              | Ephi p' ->
                op.op_def <- Some (Dphi p');
                op.op_has_real_use <- false;
                op.op_weak <- latest_weak i)
            ctx.bphis.(succ))
      (Sir.succs (Sir.block ctx.func bid))
  in
  let undo = function
    | Utop (i, e, at) ->
      top.(i) <- e;
      top_at.(i) <- at
    | Uown (i, at, s) ->
      own_at.(i) <- at;
      own_by.(i) <- s
    | Uweak (k, at, s) ->
      weak_at.(k) <- at;
      weak_by.(k) <- s
    | Ulive (k, l) -> live.(k) <- l
  in
  let rec walk bid =
    let mark = !log in
    let b = Sir.block ctx.func bid in
    (* item phis at this block start new values *)
    incr clock;
    List.iter (fun ((it : item), phi) -> push_live it.it_id (Ephi phi))
      ctx.bphis.(bid);
    List.iter
      (fun (s : Sir.stmt) ->
        incr clock;
        (match Hashtbl.find_opt ctx.stmt_occs s.Sir.sid with
         | Some occs -> List.iter (fun (it, occ) -> process_occ it occ) occs
         | None -> ());
        incr clock;
        process_kills s)
      b.Sir.stmts;
    incr clock;
    (match Hashtbl.find_opt ctx.term_occs bid with
     | Some occs -> List.iter (fun (it, occ) -> process_occ it occ) occs
     | None -> ());
    (match b.Sir.term with
     | Sir.Tret _ ->
       (* exposed at exit: phis on top without a real use are not downsafe *)
       for i = 0 to n_items - 1 do
         seed_not_downsafe i
       done
     | Sir.Tgoto _ | Sir.Tcond _ -> ());
    assign_phi_opnds bid;
    List.iter walk ctx.dom.Dom.children.(bid);
    while !log != mark do
      match !log with
      | u :: rest ->
        undo u;
        log := rest
      | [] -> assert false
    done
  in
  walk Sir.entry_bid

(* ---- steps 3-4: DownSafety, CanBeAvail, Later ---- *)

(* An item's Φs in the iteration order of a hash table from block to Φ
   filled in creation order.  The order is observable: the final
   WillBeAvail loop of [availability] decides a Φ's operand insertions
   while Φs it visits later still read WillBeAvail = false. *)
let iter_phis it f = List.iter f it.it_phis

let downsafety ctx =
  List.iter
    (fun it ->
      let changed = ref true in
      while !changed do
        changed := false;
        iter_phis it (fun p ->
            if not p.po_ds then
              Array.iter
                (fun op ->
                  if not op.op_has_real_use then
                    match op.op_def with
                    | Some (Dphi p') when p'.po_ds ->
                      p'.po_ds <- false;
                      changed := true
                    | _ -> ())
                p.po_opnds)
      done)
    ctx.item_list

(* control speculation: may we insert at a non-downsafe phi? *)
let cspec_allowed ctx (it : item) (p : phi_occ) =
  ctx.cfg.control_spec
  && (match it.it_target with
      | Kills.Tpure -> true    (* pure arithmetic cannot fault *)
      | Kills.Tsite _ | Kills.Tvar _ -> true)
  && (ctx.cfg.cspec_always
      ||
      let b = Sir.block ctx.func p.po_bb in
      let phi_freq = b.Sir.freq in
      if phi_freq <= 0. then false
      else begin
        (* cost: frequency of operand edges that would need insertion *)
        let cost = ref 0. in
        List.iteri
          (fun i pred ->
            let op = p.po_opnds.(i) in
            let needs =
              match op.op_def with
              | None -> true
              | Some (Dphi _) -> not op.op_has_real_use
              | Some (Dreal _) -> false
            in
            if needs then cost := !cost +. (Sir.block ctx.func pred).Sir.freq)
          b.Sir.preds;
        !cost < ctx.cfg.cspec_ratio *. phi_freq
      end)

let availability ctx =
  List.iter
    (fun it ->
      (* treat profitable non-downsafe phis as speculation candidates *)
      iter_phis it (fun p ->
          if not p.po_ds && cspec_allowed ctx it p then begin
            p.po_cspec <- true
          end);
      let safe p = p.po_ds || p.po_cspec in
      (* CanBeAvail *)
      iter_phis it (fun p ->
          if not (safe p)
             && Array.exists (fun op -> op.op_def = None) p.po_opnds
          then p.po_cba <- false);
      let changed = ref true in
      while !changed do
        changed := false;
        iter_phis it (fun p ->
            if p.po_cba && not (safe p) then begin
              let dead_operand =
                Array.exists
                  (fun op ->
                    (not op.op_has_real_use)
                    &&
                    match op.op_def with
                    | Some (Dphi p') -> not p'.po_cba
                    | _ -> false)
                  p.po_opnds
              in
              if dead_operand then begin
                p.po_cba <- false;
                changed := true
              end
            end)
      done;
      (* Later *)
      iter_phis it (fun p -> p.po_later <- p.po_cba);
      let changed = ref true in
      while !changed do
        changed := false;
        iter_phis it (fun p ->
            if p.po_later then begin
              let must_now =
                Array.exists
                  (fun op ->
                    match op.op_def with
                    | Some _ when op.op_has_real_use -> true
                    | Some (Dphi p') -> p'.po_cba && not p'.po_later
                    | _ -> false)
                  p.po_opnds
              in
              if must_now then begin
                p.po_later <- false;
                changed := true
              end
            end)
      done;
      iter_phis it (fun p ->
          p.po_wba <- p.po_cba && not p.po_later;
          if p.po_wba && p.po_cspec && not p.po_ds then
            ctx.stats_cspec_phis <- ctx.stats_cspec_phis + 1;
          if p.po_wba then
            Array.iter
              (fun op ->
                op.op_insert <-
                  (match op.op_def with
                   | None -> true
                   | Some (Dphi p') ->
                     (not op.op_has_real_use) && not p'.po_wba
                   | Some (Dreal _) -> false))
              p.po_opnds))
    ctx.item_list

(* ---- steps 5-6: finalize + code motion ---- *)

let is_avail_reload (occ : real_occ) =
  match occ.ro_def with
  | Some (Dreal _) -> true
  | Some (Dphi p) -> p.po_wba
  | None -> false

(* mark liveness of the value web feeding the given definition *)
let rec mark_def_used (d : def) =
  match d with
  | Dreal occ -> occ.ro_used <- true
  | Dphi p ->
    if not p.po_live then begin
      p.po_live <- true;
      Array.iter
        (fun op ->
          if not op.op_insert then
            match op.op_def with
            | Some d' -> mark_def_used d'
            | None -> ())
        p.po_opnds
    end

let new_temp ctx (it : item) =
  if it.it_temp < 0 then begin
    let syms = syms_of ctx in
    let ty = Sir.expr_ty syms it.it_proto in
    let v =
      Symtab.add syms
        ~name:(Printf.sprintf "t%d" (Symtab.count syms))
        ~ty ~storage:Symtab.Stemp ~func:(Some ctx.func.Sir.fname) ()
    in
    ctx.func.Sir.flocals <- v.Symtab.vid :: ctx.func.Sir.flocals;
    it.it_temp <- v.Symtab.vid
  end;
  it.it_temp

type action = Asave | Areload | Acheck of Sir.stmt

let code_motion ctx =
  (* 1. decide reloads and mark used defs *)
  let transforms : (item * real_occ * action) list ref = ref [] in
  List.iter
    (fun it ->
      List.iter
        (fun (occ : real_occ) ->
          if is_avail_reload occ then begin
            (match occ.ro_def with
             | Some d -> mark_def_used d
             | None -> ());
            match occ.ro_weak with
            | Some w ->
              it.it_has_checks <- true;
              transforms := (it, occ, Acheck w) :: !transforms
            | None -> transforms := (it, occ, Areload) :: !transforms
          end)
        it.it_reals)
    ctx.item_list;
  (* a phi operand whose path passed weak updates needs an edge check *)
  List.iter
    (fun it ->
      iter_phis it (fun p ->
          if p.po_live && p.po_wba then
            Array.iter
              (fun op ->
                if (not op.op_insert) && op.op_weak <> None then
                  it.it_has_checks <- true)
              p.po_opnds))
    ctx.item_list;
  (* 2. saves: used defining occurrences that are not themselves reloads *)
  List.iter
    (fun it ->
      List.iter
        (fun (occ : real_occ) ->
          if occ.ro_used && not (is_avail_reload occ) then
            transforms := (it, occ, Asave) :: !transforms)
        it.it_reals)
    ctx.item_list;
  (* 3. group rewrites by place *)
  let by_stmt : (int, (item * real_occ * action) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let by_term : (int, (item * real_occ * action) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let touched = Bytes.make (Sir.n_blocks ctx.func) '\000' in
  List.iter
    (fun ((_, occ, _) as t) ->
      Bytes.set touched occ.ro_bb '\001';
      match occ.ro_place with
      | Pstmt s ->
        let cur =
          match Hashtbl.find_opt by_stmt s.Sir.sid with
          | Some l -> l | None -> []
        in
        Hashtbl.replace by_stmt s.Sir.sid (t :: cur)
      | Pterm ->
        let cur =
          match Hashtbl.find_opt by_term occ.ro_bb with
          | Some l -> l | None -> []
        in
        Hashtbl.replace by_term occ.ro_bb (t :: cur))
    !transforms;
  (* 4. apply rewrites *)
  let apply_in_exprs rewrites map_exprs =
    (* rewrites: ((key, idx), (item, action)); returns pre-statements *)
    let pre = ref [] in
    let counts = ref [] in
    let rewrite key e =
      match List.assoc_opt (key, next_idx counts key) rewrites with
      | None -> None
      | Some (it, action) ->
        let t = new_temp ctx it in
        (match action with
         | Asave ->
           let s = Sir.new_stmt ctx.prog (Sir.Stid (t, e)) in
           if it.it_has_checks then s.Sir.mark <- Sir.Madv;
           pre := s :: !pre;
           ctx.stats_saves <- ctx.stats_saves + 1
         | Areload -> ctx.stats_reloads <- ctx.stats_reloads + 1
         | Acheck w ->
           let s = Sir.new_stmt ctx.prog (Sir.Stid (t, e)) in
           s.Sir.mark <- Sir.Mchk;
           s.Sir.check_of <- w.Sir.sid;
           pre := s :: !pre;
           ctx.stats_checks <- ctx.stats_checks + 1;
           ctx.stats_reloads <- ctx.stats_reloads + 1);
        Some (Sir.Lod t)
    in
    map_exprs (Candidates.rewrite_candidates ctx.cands rewrite);
    List.rev !pre
  in
  let rewrites_of ts =
    List.map (fun (it, occ, action) -> ((it.it_key, occ.ro_idx), (it, action))) ts
  in
  Vec.iter
    (fun (b : Sir.bb) ->
      if Bytes.get touched b.Sir.bid = '\001' then begin
      (* statement rewrites *)
      b.Sir.stmts <-
        List.concat_map
          (fun (s : Sir.stmt) ->
            match Hashtbl.find_opt by_stmt s.Sir.sid with
            | None -> [ s ]
            | Some ts ->
              let pre =
                apply_in_exprs (rewrites_of ts) (fun f ->
                    s.Sir.kind <- Sir.map_stmt_exprs f s.Sir.kind)
              in
              pre @ [ s ])
          b.Sir.stmts;
      (* terminator rewrites *)
      (match Hashtbl.find_opt by_term b.Sir.bid with
       | None -> ()
       | Some ts ->
         let pre =
           apply_in_exprs (rewrites_of ts) (fun f ->
               b.Sir.term <- Sir.map_term_exprs f b.Sir.term)
         in
         b.Sir.stmts <- b.Sir.stmts @ pre)
      end)
    ctx.func.Sir.fblocks;
  (* 5. phi-operand insertions and edge checks *)
  List.iter
    (fun it ->
      iter_phis it (fun p ->
          if p.po_live && p.po_wba then begin
            let b = Sir.block ctx.func p.po_bb in
            List.iteri
              (fun i pred ->
                let op = p.po_opnds.(i) in
                let emit mark check_of =
                  if op.op_reached then begin
                    (* the insertion expression: leaf versions current at
                       the end of this predecessor *)
                    let e =
                      Sir.map_expr_uses
                        (fun ov -> version_at_end ctx pred ov)
                        it.it_proto
                    in
                    let t = new_temp ctx it in
                    let s = Sir.new_stmt ctx.prog (Sir.Stid (t, e)) in
                    s.Sir.mark <- mark;
                    s.Sir.check_of <- check_of;
                    let pb = Sir.block ctx.func pred in
                    pb.Sir.stmts <- pb.Sir.stmts @ [ s ];
                    ctx.stats_inserts <- ctx.stats_inserts + 1
                  end
                in
                if op.op_insert then begin
                  let mark =
                    match not p.po_ds, it.it_has_checks with
                    | true, true -> Sir.Msa      (* ld.sa: both speculations *)
                    | true, false -> Sir.Mcspec
                    | false, true -> Sir.Madv
                    | false, false -> Sir.Mnone
                  in
                  emit mark (-1)
                end
                else
                  match op.op_weak with
                  | Some w ->
                    (* value passed a weak update on this path: validate *)
                    emit Sir.Mchk w.Sir.sid;
                    ctx.stats_checks <- ctx.stats_checks + 1
                  | None -> ())
              b.Sir.preds
          end))
    ctx.item_list

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

type stats = {
  checks : int;
  reloads : int;
  saves : int;
  inserts : int;
  cspec_phis : int;
  items : int;
}

let zero_stats =
  { checks = 0; reloads = 0; saves = 0; inserts = 0; cspec_phis = 0; items = 0 }

let add_stats a b =
  { checks = a.checks + b.checks; reloads = a.reloads + b.reloads;
    saves = a.saves + b.saves; inserts = a.inserts + b.inserts;
    cspec_phis = a.cspec_phis + b.cspec_phis; items = a.items + b.items }

(** Run one SSAPRE pass over a function already in HSSA form with
    speculation flags assigned.  The function is left in "flat" form:
    callers must run [Spec_ssa.Out_of_ssa] before executing it. *)
let run_func ?dom ?formals ?(work = new_work ()) (prog : Sir.prog)
    (annot : Spec_alias.Annotate.info) (cfg : config) (f : Sir.func) : stats =
  let dom = match dom with Some d -> d | None -> Dom.compute f in
  let ns = Symtab.count prog.Sir.syms in
  let ev_index = Scratch.take_ints (max ns 1) in
  Array.fill ev_index 0 ns (-1);
  let ctx =
    { prog; func = f; dom; cfg;
      kctx = Kills.create ~alias_threshold:cfg.alias_threshold
          ?adversary:cfg.adversary prog annot cfg.mode;
      cands = Candidates.create prog.Sir.syms ~arith_pre:cfg.arith_pre;
      items = Hashtbl.create 16; item_list = [];
      stmt_occs = Hashtbl.create 64; term_occs = Hashtbl.create 16;
      bphis = [||]; vdefs = [||]; vdef_lo = 0;
      ev_index; ev_origs = Scratch.take_ints (max ns 1); ev_n = 0;
      ev_rows = [||];
      stats_checks = 0; stats_reloads = 0; stats_saves = 0;
      stats_inserts = 0; stats_cspec_phis = 0; work }
  in
  collect_occurrences ctx;
  if ctx.item_list <> [] then begin
    build_version_def ctx;
    intern_proto_vars ctx;
    build_end_versions ?formals ctx;
    insert_phis ctx;
    rename ctx;
    downsafety ctx;
    availability ctx;
    code_motion ctx
  end;
  Scratch.give_ints ctx.ev_index;
  Scratch.give_ints ctx.ev_origs;
  Scratch.give_ints ctx.ev_rows;
  { checks = ctx.stats_checks; reloads = ctx.stats_reloads;
    saves = ctx.stats_saves; inserts = ctx.stats_inserts;
    cspec_phis = ctx.stats_cspec_phis; items = List.length ctx.item_list }

(** Equivalence-class-based (Steensgaard) points-to analysis.

    This is the paper's stated baseline alias analysis (§3.2): a
    flow-insensitive, context-insensitive, unification-based analysis that
    partitions memory locations into equivalence classes.  Each class that
    is accessed indirectly receives a virtual variable in HSSA
    construction, and the class membership determines the initial χ/μ
    lists.

    Nodes represent sets of abstract locations: program variables and heap
    objects named by allocation site.  Each node carries a lazily created
    [pts] node: the class of locations its contents may point to.
    Assignments unify the relevant [pts] nodes; unification recursively
    joins the pointees, which is what makes the analysis near-linear. *)

open Spec_ir

type node = {
  id : int;
  mutable parent : int;          (* union-find *)
  mutable rank : int;
  mutable pts : int;             (* node id of pointee class, -1 if none *)
}

type t = {
  nodes : node Vec.t;
  var_node : (int, int) Hashtbl.t;    (* variable id -> node id *)
  heap_node : (int, int) Hashtbl.t;   (* allocation site -> node id *)
  ret_node : (string, int) Hashtbl.t; (* function -> return-value node *)
  prog : Sir.prog;
}

let dummy_node = { id = -1; parent = -1; rank = 0; pts = -1 }

let new_node st =
  let id = Vec.length st.nodes in
  Vec.push st.nodes { id; parent = id; rank = 0; pts = -1 };
  id

let rec find st n =
  let node = Vec.get st.nodes n in
  if node.parent = n then n
  else begin
    let root = find st node.parent in
    node.parent <- root;
    root
  end

(** The pointee class of [n], created on demand. *)
let rec pts_of st n =
  let n = find st n in
  let node = Vec.get st.nodes n in
  if node.pts >= 0 then find st node.pts
  else begin
    let p = new_node st in
    node.pts <- p;
    p
  end

and unify st a b =
  let ra = find st a and rb = find st b in
  if ra <> rb then begin
    let na = Vec.get st.nodes ra and nb = Vec.get st.nodes rb in
    let parent, child =
      if na.rank >= nb.rank then na, nb else nb, na
    in
    if parent.rank = child.rank then parent.rank <- parent.rank + 1;
    child.parent <- parent.id;
    (* recursively join pointees *)
    match parent.pts >= 0, child.pts >= 0 with
    | true, true ->
      let p = parent.pts and c = child.pts in
      (* clear before the recursive join to keep termination obvious *)
      unify st p c
    | false, true -> parent.pts <- child.pts
    | true, false | false, false -> ()
  end

let var_node st vid =
  let vid = (Symtab.orig st.prog.Sir.syms vid).Symtab.vid in
  match Hashtbl.find_opt st.var_node vid with
  | Some n -> find st n
  | None ->
    let n = new_node st in
    Hashtbl.replace st.var_node vid n;
    n

let heap_node st site =
  match Hashtbl.find_opt st.heap_node site with
  | Some n -> find st n
  | None ->
    let n = new_node st in
    Hashtbl.replace st.heap_node site n;
    n

let ret_node st fname =
  match Hashtbl.find_opt st.ret_node fname with
  | Some n -> find st n
  | None ->
    let n = new_node st in
    Hashtbl.replace st.ret_node fname n;
    n

(** Node representing the set of locations the *value* of [e] may point
    to.  For an address expression this is the set of accessed
    locations. *)
let rec value_pts st (e : Sir.expr) : int =
  match e with
  | Sir.Const _ -> new_node st          (* points to nothing *)
  | Sir.Lda v -> var_node st v
  | Sir.Lod v -> pts_of st (var_node st v)
  | Sir.Ilod (_, a, _) -> pts_of st (value_pts st a)
  | Sir.Unop (_, _, x) -> value_pts st x
  | Sir.Binop (_, _, a, b) ->
    (* field-insensitive: pointer arithmetic stays within the object;
       for mixed operands, conservatively join both sides *)
    let na = value_pts st a and nb = value_pts st b in
    unify st na nb;
    find st na

let process_stmt st (s : Sir.stmt) =
  match s.Sir.kind with
  | Sir.Snop -> ()
  | Sir.Stid (v, e) ->
    unify st (pts_of st (var_node st v)) (value_pts st e)
  | Sir.Istr (_, a, e, _) ->
    unify st (pts_of st (value_pts st a)) (value_pts st e)
  | Sir.Call { callee = "malloc"; ret = Some r; csite; _ } ->
    unify st (pts_of st (var_node st r)) (heap_node st csite)
  | Sir.Call { callee; args; ret; _ } when not (Sir.is_builtin callee) ->
    let f = Sir.find_func st.prog callee in
    (try
       List.iter2
         (fun formal arg ->
           unify st (pts_of st (var_node st formal)) (value_pts st arg))
         f.Sir.fformals args
     with Invalid_argument _ -> ());
    (match ret with
     | Some r -> unify st (pts_of st (var_node st r)) (ret_node st callee)
     | None -> ())
  | Sir.Call _ -> ()   (* other builtins have no pointer effects *)

let process_term st fname (t : Sir.term) =
  match t with
  | Sir.Tret (Some e) -> unify st (ret_node st fname) (value_pts st e)
  | Sir.Tret None | Sir.Tgoto _ | Sir.Tcond _ -> ()

(* ------------------------------------------------------------------ *)
(* Solution                                                            *)
(* ------------------------------------------------------------------ *)

(** Solved points-to information, exposed as alias classes. *)
type solution = {
  st : t;
  site_class : (int, int) Hashtbl.t;
      (** indirect-reference site -> class id (node root) *)
  class_vars : (int, int list) Hashtbl.t;
      (** class id -> memory-resident variable members *)
  class_heap : (int, int list) Hashtbl.t;
      (** class id -> heap allocation-site members *)
}

let solve (prog : Sir.prog) : solution =
  let st =
    { nodes = Vec.create dummy_node; var_node = Hashtbl.create 64;
      heap_node = Hashtbl.create 16; ret_node = Hashtbl.create 16; prog }
  in
  Sir.iter_funcs
    (fun f ->
      Vec.iter
        (fun (b : Sir.bb) ->
          List.iter (process_stmt st) b.Sir.stmts;
          process_term st f.Sir.fname b.Sir.term)
        f.Sir.fblocks)
    prog;
  (* classify indirect-reference sites by the class their address accesses *)
  let site_class = Hashtbl.create 64 in
  let classify_expr e =
    Sir.iter_subexprs
      (function
        | Sir.Ilod (_, a, site) ->
          Hashtbl.replace site_class site (find st (value_pts st a))
        | _ -> ())
      e
  in
  Sir.iter_funcs
    (fun f ->
      Vec.iter
        (fun (b : Sir.bb) ->
          List.iter
            (fun s ->
              List.iter classify_expr (Sir.stmt_exprs s.Sir.kind);
              match s.Sir.kind with
              | Sir.Istr (_, a, _, site) ->
                Hashtbl.replace site_class site (find st (value_pts st a))
              | _ -> ())
            b.Sir.stmts;
          List.iter classify_expr (Sir.term_exprs b.Sir.term))
        f.Sir.fblocks)
    prog;
  (* class membership *)
  let class_vars = Hashtbl.create 16 and class_heap = Hashtbl.create 16 in
  Hashtbl.iter
    (fun vid n ->
      if Symtab.is_mem prog.Sir.syms vid then begin
        let c = find st n in
        let cur =
          match Hashtbl.find_opt class_vars c with Some l -> l | None -> []
        in
        Hashtbl.replace class_vars c (vid :: cur)
      end)
    st.var_node;
  Hashtbl.iter
    (fun site n ->
      let c = find st n in
      let cur =
        match Hashtbl.find_opt class_heap c with Some l -> l | None -> []
      in
      Hashtbl.replace class_heap c (site :: cur))
    st.heap_node;
  { st; site_class; class_vars; class_heap }

(** Alias class accessed by an indirect-reference site. *)
let class_of_site sol site =
  match Hashtbl.find_opt sol.site_class site with
  | Some c -> Some (find sol.st c)
  | None -> None

(** Memory-resident variables that may live in class [c], sorted. *)
let vars_in_class sol c =
  match Hashtbl.find_opt sol.class_vars (find sol.st c) with
  | Some l -> List.sort_uniq compare l
  | None -> []

let heap_sites_in_class sol c =
  match Hashtbl.find_opt sol.class_heap (find sol.st c) with
  | Some l -> List.sort_uniq compare l
  | None -> []

(** Class containing memory-resident variable [vid], if any pointer may
    reach it. *)
let class_of_var sol vid =
  match Hashtbl.find_opt sol.st.var_node
          (Symtab.orig sol.st.prog.Sir.syms vid).Symtab.vid with
  | Some n -> Some (find sol.st n)
  | None -> None

(** May two indirect sites alias (same class)? *)
let sites_may_alias sol s1 s2 =
  match class_of_site sol s1, class_of_site sol s2 with
  | Some a, Some b -> a = b
  | _ -> false

(** All classes accessed by at least one indirect site. *)
let accessed_classes sol =
  Hashtbl.fold (fun _ c acc -> find sol.st c :: acc) sol.site_class []
  |> List.sort_uniq compare

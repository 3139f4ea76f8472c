(** PRE candidate expressions and their interned keys.

    SSAPRE works one lexically-identified expression at a time.  A
    candidate is a *maximal first-order* expression: an indirect load whose
    address is pure (no memory access), a direct load of a memory-resident
    variable, or (when arithmetic PRE is enabled) a maximal pure arithmetic
    subtree.  Loads nested inside other loads become candidates in a later
    round, after the inner load has been PREed into a temporary.

    Keys are small ints handed out by a per-function interner that
    hash-conses deversioned expression shapes.  One bottom-up pass over
    an expression computes purity and constness and finds its maximal
    candidates; only those are interned. *)

open Spec_ir

(* One expression node with its children already interned.  Two
   occurrences get the same key exactly when their shapes agree: loads
   and addresses by variable (a load by its original variable), an
   indirect load by type and address (not by site), a unary operator by
   operator, a binary one by operator and type, and a float constant by
   its bits. *)
type shape =
  | Sint of int
  | Sflt of int64
  | Slod of int
  | Slda of int
  | Silod of Types.ty * int
  | Sunop of Sir.unop * int
  | Sbinop of Sir.binop * Types.ty * int * int

module Shapes = Hashtbl.Make (struct
  type t = shape

  let equal (a : t) b =
    match a, b with
    | Sint x, Sint y | Slod x, Slod y | Slda x, Slda y -> x = y
    | Sflt x, Sflt y -> Int64.equal x y
    | Silod (t, x), Silod (u, y) -> x = y && Types.equal t u
    | Sunop (o, x), Sunop (p, y) -> x = y && o = p
    | Sbinop (o, t, x, y), Sbinop (p, u, v, w) ->
      x = v && y = w && o = p && Types.equal t u
    | (Sint _ | Sflt _ | Slod _ | Slda _ | Silod _ | Sunop _ | Sbinop _), _ ->
      false

  (* children are keys: small ints, so mix them arithmetically *)
  let hash = function
    | Sint i -> 8 * i
    | Sflt b -> (8 * Hashtbl.hash b) + 1
    | Slod v -> (8 * v) + 2
    | Slda v -> (8 * v) + 3
    | Silod (t, a) -> (8 * ((31 * a) + Hashtbl.hash t)) + 4
    | Sunop (o, x) -> (8 * ((31 * x) + Hashtbl.hash o)) + 5
    | Sbinop (o, t, a, b) ->
      (8 * ((961 * a) + (31 * b) + Hashtbl.hash (o, t))) + 6
end)

type t = {
  syms : Symtab.t;
  arith_pre : bool;
  keys : int Shapes.t;
}

let create syms ~arith_pre = { syms; arith_pre; keys = Shapes.create 64 }

let node t shape =
  match Shapes.find_opt t.keys shape with
  | Some k -> k
  | None ->
    let k = Shapes.length t.keys in
    Shapes.add t.keys shape k;
    k

let rec key_of t (e : Sir.expr) =
  match e with
  | Sir.Const (Sir.Cint i) -> node t (Sint i)
  | Sir.Const (Sir.Cflt f) -> node t (Sflt (Int64.bits_of_float f))
  | Sir.Lda v -> node t (Slda v)
  | Sir.Lod v -> node t (Slod (Symtab.orig t.syms v).Symtab.vid)
  | Sir.Ilod (ty, a, _) -> node t (Silod (ty, key_of t a))
  | Sir.Unop (o, _, x) -> node t (Sunop (o, key_of t x))
  | Sir.Binop (o, ty, a, b) ->
    let ka = key_of t a in
    node t (Sbinop (o, ty, ka, key_of t b))

(* Purity (bit 1) and constness (bit 0) of [e], bottom-up.  [acc] holds
   the maximal candidates found so far, latest first; a node that is
   itself a candidate replaces whatever its subtree added, so candidates
   come out in pre-order.  Only candidates are interned, once each. *)
let rec scan t acc (e : Sir.expr) =
  let below = !acc in
  match e with
  | Sir.Const _ -> 3
  | Sir.Lda _ -> 2
  | Sir.Lod v ->
    if Symtab.is_mem t.syms v then begin
      acc := (Spec_spec.Kills.Tvar (Symtab.orig t.syms v).Symtab.vid, e) :: below;
      0
    end
    else 2
  | Sir.Ilod (_, a, site) ->
    if scan t acc a land 2 <> 0 then acc := (Spec_spec.Kills.Tsite site, e) :: below;
    0
  | Sir.Unop (_, _, x) -> scan t acc x
  | Sir.Binop (_, _, a, b) ->
    let fa = scan t acc a in
    let f = fa land scan t acc b in
    (* pure and not constant *)
    if t.arith_pre && f = 2 then acc := (Spec_spec.Kills.Tpure, e) :: below;
    f

let candidates t e =
  let acc = ref [] in
  ignore (scan t acc e : int);
  List.rev !acc

let iter_candidates t f e =
  List.iter (fun (target, c) -> f (key_of t c) target c) (candidates t e)

let rewrite_candidates t f e =
  match candidates t e with
  | [] -> e
  | cands ->
    (* the top-down rebuild meets the maximal candidates in the order the
       bottom-up scan listed them *)
    let pending = ref cands in
    let rec go e =
      match !pending with
      | (_, c) :: rest when c == e -> (
          pending := rest;
          match f (key_of t e) e with Some e' -> e' | None -> e)
      | _ -> (
          match e with
          | Sir.Const _ | Sir.Lod _ | Sir.Lda _ -> e
          | Sir.Ilod (ty, a, s) -> Sir.Ilod (ty, go a, s)
          | Sir.Unop (o, ty, x) -> Sir.Unop (o, ty, go x)
          | Sir.Binop (o, ty, a, b) ->
            let a' = go a in
            let b' = go b in
            Sir.Binop (o, ty, a', b'))
    in
    go e

(** Deversioned original-variable leaves of an expression. *)
let leaves syms (e : Sir.expr) =
  let acc = ref [] in
  Sir.iter_expr_uses
    (fun v ->
      let ov = (Symtab.orig syms v).Symtab.vid in
      if not (List.mem ov !acc) then acc := ov :: !acc)
    e;
  List.sort compare !acc

(** Persistent profile store ([specprof/1]): a versioned, deterministic
    on-disk format for the three profile kinds the instrumented
    interpreter collects — edge counts, per-site alias LOC sets with
    observation counts, and call-site mod/ref LOC sets (§3.2.1 of the
    paper) — plus the algebra that makes profiles durable, first-class
    artifacts:

    - {!merge} is commutative and associative with {!empty} as identity
      (canonical form compared by {!write}), so any number of train runs
      aggregate into one store in any order;
    - {!scale} / {!decay} down-weight old evidence (exponential decay:
      [decay ~lambda] before merging a fresh run);
    - {!bind} re-binds a store to a freshly lowered — possibly edited —
      program by stable {!Sitekey}s, reporting the match rate.  Unmatched
      sites carry no evidence into the bound {!Spec_prof.Profile.t}, so
      the speculation-flag assignment treats them conservatively
      (flag everything): a stale profile can only *forgo* speculation,
      never make a wrong program.

    Everything in the store is keyed symbolically (function names,
    variable names, reference shapes) — never by the dense integer ids of
    one particular compile — and counts are kept, not just LOC sets, so
    the χs degree-of-likeliness threshold keeps working on merged
    multi-run evidence.  The writer emits a canonical (sorted) rendering;
    the reader is a recursive-descent token reader in the style of
    {!Spec_driver.Bench_json}; no [Marshal] anywhere. *)

open Spec_ir
open Spec_prof

let version = "specprof/1"

(** A symbolic LOC: a named variable (qualified by its owning function;
    [None] for globals) or a heap object named by its allocation call
    site's key. *)
type sloc =
  | Svar of string option * string
  | Sheap of Sitekey.t

let compare_sloc a b =
  match a, b with
  | Svar (f1, n1), Svar (f2, n2) ->
    let c = Stdlib.compare f1 f2 in
    if c <> 0 then c else String.compare n1 n2
  | Sheap k1, Sheap k2 -> Sitekey.compare k1 k2
  | Svar _, Sheap _ -> -1
  | Sheap _, Svar _ -> 1

type site_entry = {
  e_key : Sitekey.t;
  e_count : int;                 (** dynamic executions of the site *)
  e_locs : (sloc * int) list;    (** observed LOC → observation count *)
}

type call_entry = {
  c_key : Sitekey.t;
  c_mod : sloc list;             (** LOCs the call subtree may modify *)
  c_ref : sloc list;             (** LOCs the call subtree may reference *)
}

(** The digest recorded for a function whose body differed between two
    merged stores: it can never match a real digest, so edge profiles of
    ambiguous functions are dropped at {!bind} time.  Absorbing, which
    keeps {!merge} associative. *)
let conflict_digest = "!"

type t = {
  runs : int;                    (** train runs aggregated in this store *)
  funcs : (string * string) list;       (** function → body digest (hex) *)
  entries : (string * int) list;        (** function → entry count *)
  edges : ((string * int * int) * int) list;
      (** (function, from bb, to bb) → traversal count *)
  sites : site_entry list;
  calls : call_entry list;
}

let empty =
  { runs = 0; funcs = []; entries = []; edges = []; sites = []; calls = [] }

(* ------------------------------------------------------------------ *)
(* Canonical form                                                      *)
(* ------------------------------------------------------------------ *)

let canon_site e =
  { e with
    e_locs = List.sort (fun (a, _) (b, _) -> compare_sloc a b) e.e_locs }

let canon_call c =
  { c with
    c_mod = List.sort_uniq compare_sloc c.c_mod;
    c_ref = List.sort_uniq compare_sloc c.c_ref }

(** Sort every section by key.  [write] always emits canonical form, so
    stores that are equal up to ordering serialize identically. *)
let canon t =
  { t with
    funcs = List.sort (fun (a, _) (b, _) -> String.compare a b) t.funcs;
    entries = List.sort (fun (a, _) (b, _) -> String.compare a b) t.entries;
    edges =
      List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) t.edges;
    sites =
      List.sort (fun a b -> Sitekey.compare a.e_key b.e_key)
        (List.map canon_site t.sites);
    calls =
      List.sort (fun a b -> Sitekey.compare a.c_key b.c_key)
        (List.map canon_call t.calls) }

(* ------------------------------------------------------------------ *)
(* Extraction from a fresh profiling run                               *)
(* ------------------------------------------------------------------ *)

let sloc_of_loc syms ix (l : Loc.t) : sloc option =
  match l with
  | Loc.Lvar vid ->
    let v = Symtab.orig syms vid in
    Some (Svar (v.Symtab.vfunc, v.Symtab.vname))
  | Loc.Lheap site ->
    (match Sitekey.key_of_site ix site with
     | Some k -> Some (Sheap k)
     | None -> None)

(** Extract a store from one training run: [prog] must be the freshly
    lowered program the profile was collected on (its site ids give the
    keys their meaning). *)
let of_profile (prog : Sir.prog) (prof : Profile.t) : t =
  let ix = Sitekey.index prog in
  let syms = prog.Sir.syms in
  let sloc l = sloc_of_loc syms ix l in
  let funcs =
    List.filter_map
      (fun f ->
        match Sitekey.digest_of_func ix f with
        | Some d -> Some (f, d)
        | None -> None)
      prog.Sir.func_order
  in
  let entries =
    Hashtbl.fold (fun f c acc -> (f, c) :: acc) prof.Profile.edge.Profile.entries []
  in
  let edges =
    Hashtbl.fold (fun k c acc -> (k, c) :: acc) prof.Profile.edge.Profile.edges []
  in
  let sites =
    Hashtbl.fold
      (fun site count acc ->
        match Sitekey.key_of_site ix site with
        | None -> acc
        | Some key ->
          let locs =
            match Hashtbl.find_opt prof.Profile.alias.Profile.ref_locs site with
            | None -> []
            | Some counts ->
              Hashtbl.fold
                (fun l n acc ->
                  match sloc l with
                  | Some s -> (s, n) :: acc
                  | None -> acc)
                counts []
          in
          { e_key = key; e_count = count; e_locs = locs } :: acc)
      prof.Profile.alias.Profile.ref_counts []
  in
  let call_sites =
    let tbl = Hashtbl.create 64 in
    Hashtbl.iter (fun s _ -> Hashtbl.replace tbl s ())
      prof.Profile.alias.Profile.call_mod;
    Hashtbl.iter (fun s _ -> Hashtbl.replace tbl s ())
      prof.Profile.alias.Profile.call_ref;
    Hashtbl.fold (fun s () acc -> s :: acc) tbl []
  in
  let calls =
    List.filter_map
      (fun site ->
        match Sitekey.key_of_site ix site with
        | None -> None
        | Some key ->
          let locs_of tbl =
            match Hashtbl.find_opt tbl site with
            | None -> []
            | Some set ->
              Loc.Set.fold
                (fun l acc ->
                  match sloc l with Some s -> s :: acc | None -> acc)
                set []
          in
          Some
            { c_key = key;
              c_mod = locs_of prof.Profile.alias.Profile.call_mod;
              c_ref = locs_of prof.Profile.alias.Profile.call_ref })
      call_sites
  in
  canon { runs = 1; funcs; entries; edges; sites; calls }

(* ------------------------------------------------------------------ *)
(* Merge, scale, decay                                                 *)
(* ------------------------------------------------------------------ *)

let merge_assoc_counts merge_v xs ys =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some v0 -> (k, merge_v v0 v) :: List.remove_assoc k acc
      | None -> (k, v) :: acc)
    xs ys

(** Commutative/associative aggregation: counts sum, LOC sets union,
    function digests union with conflicting digests poisoned (so the
    ambiguous function's edges are dropped at bind time).  [empty] is the
    identity.  Equalities hold up to canonical form — compare with
    {!write} or {!equal}. *)
let merge (a : t) (b : t) : t =
  let funcs =
    merge_assoc_counts
      (fun d1 d2 -> if d1 = d2 then d1 else conflict_digest)
      a.funcs b.funcs
  in
  let entries = merge_assoc_counts ( + ) a.entries b.entries in
  let edges = merge_assoc_counts ( + ) a.edges b.edges in
  let sites =
    List.fold_left
      (fun acc (e : site_entry) ->
        match List.partition (fun x -> Sitekey.equal x.e_key e.e_key) acc with
        | [ x ], rest ->
          { e_key = e.e_key; e_count = x.e_count + e.e_count;
            e_locs = merge_assoc_counts ( + ) x.e_locs e.e_locs }
          :: rest
        | [], _ -> e :: acc
        | _ -> assert false)
      a.sites b.sites
  in
  let calls =
    List.fold_left
      (fun acc (c : call_entry) ->
        match List.partition (fun x -> Sitekey.equal x.c_key c.c_key) acc with
        | [ x ], rest ->
          { c_key = c.c_key; c_mod = x.c_mod @ c.c_mod;
            c_ref = x.c_ref @ c.c_ref }
          :: rest
        | [], _ -> c :: acc
        | _ -> assert false)
      a.calls b.calls
  in
  canon { runs = a.runs + b.runs; funcs; entries; edges; sites; calls }

let equal a b = canon a = canon b

let scale_count w c = int_of_float (Float.round (w *. float_of_int c))

(** Multiply every count by [w] (rounded to nearest).  LOC sets, function
    digests and the run counter are unchanged.  For [w <= 1] every count
    is monotonically non-increasing. *)
let scale w (t : t) : t =
  if w < 0. then invalid_arg "Store.scale: negative weight";
  { t with
    entries = List.map (fun (k, c) -> (k, scale_count w c)) t.entries;
    edges = List.map (fun (k, c) -> (k, scale_count w c)) t.edges;
    sites =
      List.map
        (fun e ->
          { e with
            e_count = scale_count w e.e_count;
            e_locs = List.map (fun (l, c) -> (l, scale_count w c)) e.e_locs })
        t.sites }

(** Exponential decay: down-weight [t]'s evidence by [lambda] before
    merging a fresh run, so [merge (decay ~lambda acc) fresh] keeps a
    moving average where a run observed [k] merges ago carries weight
    [lambda^k]. *)
let decay ~lambda (t : t) : t =
  if lambda < 0. || lambda > 1. then
    invalid_arg "Store.decay: lambda must be in [0, 1]";
  scale lambda t

(** Weighted merge of two stores. *)
let merge_weighted ~wa ~wb a b = merge (scale wa a) (scale wb b)

(* ------------------------------------------------------------------ *)
(* Profile drift                                                       *)
(* ------------------------------------------------------------------ *)

(* Every counted record of a store, flattened to a stable string key.
   Entry counts, edge counts, site execution counts and per-site LOC
   observation counts all participate: a shift in any of them is
   evidence the program now behaves differently from what the last
   compile saw. *)
let count_profile (t : t) : (string, int) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  let add k c = Hashtbl.replace tbl k (c + try Hashtbl.find tbl k with Not_found -> 0) in
  List.iter (fun (f, n) -> add ("e:" ^ f) n) t.entries;
  List.iter
    (fun ((f, s, d), n) -> add (Printf.sprintf "g:%s:%d:%d" f s d) n)
    t.edges;
  List.iter
    (fun e ->
      let k = Sitekey.to_string e.e_key in
      add ("s:" ^ k) e.e_count;
      List.iter
        (fun (l, n) ->
          let ls =
            match l with
            | Svar (Some f, v) -> "v:" ^ f ^ ":" ^ v
            | Svar (None, v) -> "v::" ^ v
            | Sheap hk -> "h:" ^ Sitekey.to_string hk
          in
          add ("l:" ^ k ^ ":" ^ ls) n)
        e.e_locs)
    t.sites;
  tbl

let distance a b =
  let ta = count_profile a and tb = count_profile b in
  let num = ref 0 and den = ref 0 in
  Hashtbl.iter
    (fun k ca ->
      let cb = try Hashtbl.find tb k with Not_found -> 0 in
      num := !num + abs (ca - cb);
      den := !den + max ca cb)
    ta;
  Hashtbl.iter
    (fun k cb ->
      if not (Hashtbl.mem ta k) then begin
        num := !num + cb;
        den := !den + cb
      end)
    tb;
  if !den = 0 then 0. else float_of_int !num /. float_of_int !den

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* " " then the quoted [s] *)
let sp_quoted buf s =
  Buffer.add_char buf ' ';
  Textio.add_quoted buf s

let add_sloc buf = function
  | Svar (None, name) ->
    Buffer.add_string buf "v -";
    sp_quoted buf name
  | Svar (Some f, name) ->
    Buffer.add_char buf 'v';
    sp_quoted buf f;
    sp_quoted buf name
  | Sheap k ->
    Buffer.add_string buf "h ";
    Textio.add_int buf k.Sitekey.sk_ord;
    sp_quoted buf k.Sitekey.sk_func;
    sp_quoted buf k.Sitekey.sk_shape

let add_key buf (k : Sitekey.t) =
  Buffer.add_string buf (Sitekey.kind_tag k.Sitekey.sk_kind);
  Buffer.add_char buf ' ';
  Textio.add_int buf k.Sitekey.sk_ord;
  sp_quoted buf k.Sitekey.sk_func;
  sp_quoted buf k.Sitekey.sk_shape

(** Canonical rendering: sections in a fixed order, each sorted by key.
    Equal stores (up to ordering) produce byte-identical output, which is
    what {!digest} and the golden tests rely on. *)
let write (t : t) : string =
  let t = canon t in
  let buf = Buffer.create 4096 in
  let str = Buffer.add_string buf and int = Textio.add_int buf in
  let nl () = Buffer.add_char buf '\n' in
  str version;
  str "\nruns ";
  int t.runs;
  nl ();
  List.iter
    (fun (f, d) ->
      str "func";
      sp_quoted buf d;
      sp_quoted buf f;
      nl ())
    t.funcs;
  List.iter
    (fun (f, c) ->
      str "entry ";
      int c;
      sp_quoted buf f;
      nl ())
    t.entries;
  List.iter
    (fun ((f, src, dst), c) ->
      str "edge ";
      int src;
      Buffer.add_char buf ' ';
      int dst;
      Buffer.add_char buf ' ';
      int c;
      sp_quoted buf f;
      nl ())
    t.edges;
  List.iter
    (fun e ->
      str "site ";
      add_key buf e.e_key;
      Buffer.add_char buf ' ';
      int e.e_count;
      nl ();
      List.iter
        (fun (l, c) ->
          str "loc ";
          int c;
          Buffer.add_char buf ' ';
          add_sloc buf l;
          nl ())
        e.e_locs)
    t.sites;
  List.iter
    (fun c ->
      str "callsite ";
      add_key buf c.c_key;
      nl ();
      List.iter (fun l -> str "mod "; add_sloc buf l; nl ()) c.c_mod;
      List.iter (fun l -> str "ref "; add_sloc buf l; nl ()) c.c_ref)
    t.calls;
  str "end\n";
  Buffer.contents buf

let digest t = Digest.to_hex (Digest.string (write t))

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

let read_key lx =
  let kind = Textio.tag lx ~what:"bad site kind" Sitekey.kind_tags in
  let ord = Textio.int_tok lx in
  let func = Textio.token lx in
  let shape = Textio.token lx in
  { Sitekey.sk_func = func; sk_kind = kind; sk_shape = shape; sk_ord = ord }

type sloc_tag = Var | Heap

let sloc_tags = [| ("v", Var); ("h", Heap) |]

(* "-" for a global *)
let no_func = [| ("-", None) |]

let read_sloc lx =
  match Textio.tag lx ~what:"expected v or h, got" sloc_tags with
  | Var ->
    let f = Textio.tag_or lx no_func (fun _ f -> Some f) in
    let name = Textio.token lx in
    Svar (f, name)
  | Heap ->
    let ord = Textio.int_tok lx in
    let func = Textio.token lx in
    let shape = Textio.token lx in
    Sheap
      { Sitekey.sk_func = func; sk_kind = Sir.Kcall; sk_shape = shape;
        sk_ord = ord }

type record = End | Func | Entry | Edge | Site | Loc | Callsite | Mod | Ref

(* most frequent first: the table is scanned in order *)
let records =
  [| ("loc", Loc); ("site", Site); ("edge", Edge); ("mod", Mod);
     ("ref", Ref); ("callsite", Callsite); ("entry", Entry); ("func", Func);
     ("end", End) |]

(** Parse a store.  Accepts exactly what {!write} emits (any section
    order/sorting, but the fixed token grammar and version header). *)
let read (s : string) : (t, string) result =
  let lx = Textio.make s in
  try
    Textio.expect lx version;
    Textio.expect lx "runs";
    let runs = Textio.int_tok lx in
    if runs < 0 then Textio.fail lx "negative run count";
    let funcs = ref [] and entries = ref [] and edges = ref [] in
    let sites = ref [] and calls = ref [] in
    let finished = ref false in
    while not !finished do
      match Textio.tag lx ~what:"unknown record" records with
      | End -> finished := true
      | Func ->
        let d = Textio.token lx in
        let f = Textio.token lx in
        funcs := (f, d) :: !funcs
      | Entry ->
        let c = Textio.int_tok lx in
        let f = Textio.token lx in
        entries := (f, c) :: !entries
      | Edge ->
        let src = Textio.int_tok lx in
        let dst = Textio.int_tok lx in
        let c = Textio.int_tok lx in
        let f = Textio.token lx in
        edges := ((f, src, dst), c) :: !edges
      | Site ->
        let key = read_key lx in
        let count = Textio.int_tok lx in
        sites := { e_key = key; e_count = count; e_locs = [] } :: !sites
      | Loc ->
        (match !sites with
         | [] -> Textio.fail lx "loc before any site"
         | e :: rest ->
           let c = Textio.int_tok lx in
           let l = read_sloc lx in
           sites := { e with e_locs = (l, c) :: e.e_locs } :: rest)
      | Callsite ->
        let key = read_key lx in
        calls := { c_key = key; c_mod = []; c_ref = [] } :: !calls
      | Mod ->
        (match !calls with
         | [] -> Textio.fail lx "mod before any callsite"
         | c :: rest ->
           calls := { c with c_mod = read_sloc lx :: c.c_mod } :: rest)
      | Ref ->
        (match !calls with
         | [] -> Textio.fail lx "ref before any callsite"
         | c :: rest ->
           calls := { c with c_ref = read_sloc lx :: c.c_ref } :: rest)
    done;
    if not (Textio.at_eof lx) then Textio.fail lx "trailing data after end";
    Ok
      (canon
         { runs; funcs = List.rev !funcs; entries = List.rev !entries;
           edges = List.rev !edges;
           sites = List.rev_map (fun e -> { e with e_locs = List.rev e.e_locs }) !sites;
           calls =
             List.rev_map
               (fun c ->
                 { c with c_mod = List.rev c.c_mod;
                   c_ref = List.rev c.c_ref })
               !calls })
  with Textio.Error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Schema validation                                                   *)
(* ------------------------------------------------------------------ *)

(** Structural pinning beyond what the token grammar enforces: no
    negative counts, no duplicate keys within a section.  Together with
    the version-header check in {!read}, this is the drift detector the
    golden test runs against the committed store. *)
let validate (t : t) : (unit, string) result =
  let dup name keys cmp =
    let sorted = List.sort cmp keys in
    let rec go = function
      | a :: b :: _ when cmp a b = 0 ->
        Some (Printf.sprintf "duplicate %s key" name)
      | _ :: rest -> go rest
      | [] -> None
    in
    go sorted
  in
  let neg name c =
    if c < 0 then Some (Printf.sprintf "negative %s count" name) else None
  in
  let checks =
    [ neg "run" t.runs;
      dup "func" (List.map fst t.funcs) String.compare;
      dup "entry" (List.map fst t.entries) String.compare;
      dup "edge" (List.map fst t.edges) Stdlib.compare;
      dup "site" (List.map (fun e -> e.e_key) t.sites) Sitekey.compare;
      dup "callsite" (List.map (fun c -> c.c_key) t.calls) Sitekey.compare ]
    @ List.map (fun (_, c) -> neg "entry" c) t.entries
    @ List.map (fun (_, c) -> neg "edge" c) t.edges
    @ List.concat_map
        (fun e ->
          neg "site" e.e_count
          :: List.map (fun (_, c) -> neg "loc" c) e.e_locs)
        t.sites
  in
  match List.find_opt (fun o -> o <> None) checks with
  | Some (Some msg) -> Error msg
  | _ -> Ok ()

(** Parse and validate in one step (the golden-file check). *)
let check (s : string) : (unit, string) result =
  match read s with
  | Error msg -> Error ("parse error at " ^ msg)
  | Ok t -> validate t

(* ------------------------------------------------------------------ *)
(* Stale-profile matching: binding a store to a program                *)
(* ------------------------------------------------------------------ *)

type match_report = {
  mr_sites : int;            (** reference sites in the store *)
  mr_sites_matched : int;
  mr_calls : int;            (** call sites in the store *)
  mr_calls_matched : int;
  mr_locs : int;             (** LOC observations in the store *)
  mr_locs_matched : int;
  mr_funcs : int;            (** functions with a recorded body digest *)
  mr_funcs_matched : int;    (** digests matching the bound program *)
  mr_edges : int;            (** edge records in the store *)
  mr_edges_kept : int;       (** edges re-bound (digest-matching funcs) *)
}

(** Fraction of reference + call sites that re-bound; 1 for an empty
    store. *)
let match_rate r =
  let total = r.mr_sites + r.mr_calls in
  if total = 0 then 1.
  else float_of_int (r.mr_sites_matched + r.mr_calls_matched)
       /. float_of_int total

let report_to_string r =
  Printf.sprintf
    "sites %d/%d  calls %d/%d  locs %d/%d  funcs %d/%d  edges %d/%d  \
     match-rate %.1f%%"
    r.mr_sites_matched r.mr_sites r.mr_calls_matched r.mr_calls
    r.mr_locs_matched r.mr_locs r.mr_funcs_matched r.mr_funcs
    r.mr_edges_kept r.mr_edges
    (100. *. match_rate r)

(** Re-bind a store to a freshly lowered program.  Site entries re-bind
    by key; LOCs re-resolve by qualified variable name or allocation-site
    key; edge/entry counts re-bind only for functions whose body digest
    is unchanged.  Anything that fails to match is dropped — the bound
    profile then simply has no evidence there, and the flag assignment
    falls back to its conservative (flag-everything) path, which forgoes
    speculation but can never be unsound: speculation that *does* happen
    is still guarded by check loads. *)
let bind (t : t) (prog : Sir.prog) : Profile.t * match_report =
  let ix = Sitekey.index prog in
  let syms = prog.Sir.syms in
  let prof = Profile.create () in
  (* qualified-name → original variable id *)
  let vars : (string option * string, int) Hashtbl.t = Hashtbl.create 256 in
  Symtab.iter
    (fun (v : Symtab.var) ->
      if v.Symtab.vorig = v.Symtab.vid
         && v.Symtab.vstorage <> Symtab.Svirtual
         && v.Symtab.vstorage <> Symtab.Stemp
      then begin
        let key = (v.Symtab.vfunc, v.Symtab.vname) in
        if not (Hashtbl.mem vars key) then Hashtbl.add vars key v.Symtab.vid
      end)
    syms;
  let locs_total = ref 0 and locs_matched = ref 0 in
  let resolve_sloc (l : sloc) : Loc.t option =
    incr locs_total;
    let r =
      match l with
      | Svar (f, name) ->
        (match Hashtbl.find_opt vars (f, name) with
         | Some vid -> Some (Loc.Lvar vid)
         | None -> None)
      | Sheap k ->
        (match Sitekey.find ix k with
         | Some site -> Some (Loc.Lheap site)
         | None -> None)
    in
    if r <> None then incr locs_matched;
    r
  in
  let sites_matched = ref 0 in
  List.iter
    (fun e ->
      if e.e_count > 0 then
        match Sitekey.find ix e.e_key with
        | None -> ()
        | Some site ->
          incr sites_matched;
          Hashtbl.replace prof.Profile.alias.Profile.ref_counts site
            e.e_count;
          let live =
            List.filter_map
              (fun (l, c) ->
                if c <= 0 then None
                else
                  match resolve_sloc l with
                  | Some loc -> Some (loc, c)
                  | None -> None)
              (List.filter (fun (_, c) -> c > 0) e.e_locs)
          in
          if live <> [] then begin
            let counts = Hashtbl.create (List.length live) in
            List.iter (fun (loc, c) -> Hashtbl.replace counts loc c) live;
            Hashtbl.replace prof.Profile.alias.Profile.ref_locs site counts
          end)
    t.sites;
  let calls_matched = ref 0 in
  List.iter
    (fun c ->
      match Sitekey.find ix c.c_key with
      | None -> ()
      | Some site ->
        incr calls_matched;
        let set locs =
          List.fold_left
            (fun acc l ->
              match resolve_sloc l with
              | Some loc -> Loc.Set.add loc acc
              | None -> acc)
            Loc.Set.empty locs
        in
        Hashtbl.replace prof.Profile.alias.Profile.call_mod site
          (set c.c_mod);
        Hashtbl.replace prof.Profile.alias.Profile.call_ref site
          (set c.c_ref))
    t.calls;
  (* edge profile: only for functions whose lowering is provably the one
     the block ids were recorded against *)
  let func_ok =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (f, d) ->
        match Sitekey.digest_of_func ix f with
        | Some d' when d = d' && d <> conflict_digest ->
          Hashtbl.replace tbl f ()
        | _ -> ())
      t.funcs;
    tbl
  in
  let edges_kept = ref 0 in
  List.iter
    (fun ((f, src, dst), c) ->
      if Hashtbl.mem func_ok f then begin
        incr edges_kept;
        Hashtbl.replace prof.Profile.edge.Profile.edges (f, src, dst) c
      end)
    t.edges;
  List.iter
    (fun (f, c) ->
      if Hashtbl.mem func_ok f then
        Hashtbl.replace prof.Profile.edge.Profile.entries f c)
    t.entries;
  let report =
    { mr_sites = List.length t.sites;
      mr_sites_matched = !sites_matched;
      mr_calls = List.length t.calls;
      mr_calls_matched = !calls_matched;
      mr_locs = !locs_total;
      mr_locs_matched = !locs_matched;
      mr_funcs = List.length t.funcs;
      mr_funcs_matched = Hashtbl.length func_ok;
      mr_edges = List.length t.edges;
      mr_edges_kept = !edges_kept }
  in
  (prof, report)

(* ------------------------------------------------------------------ *)
(* Summary (speccc profile show)                                       *)
(* ------------------------------------------------------------------ *)

let summary (t : t) : string =
  let nlocs =
    List.fold_left (fun acc e -> acc + List.length e.e_locs) 0 t.sites
  in
  Printf.sprintf
    "%s: %d run%s, %d function%s, %d edges, %d reference sites \
     (%d loc observations), %d call sites"
    version t.runs
    (if t.runs = 1 then "" else "s")
    (List.length t.funcs)
    (if List.length t.funcs = 1 then "" else "s")
    (List.length t.edges) (List.length t.sites) nlocs (List.length t.calls)

(* ------------------------------------------------------------------ *)
(* File I/O                                                            *)
(* ------------------------------------------------------------------ *)

(* Written to a temp file in the same directory and renamed over
   [path], as the compile cache stores artifacts: a crash mid-write
   leaves the old store intact, never a truncated one, and a failed
   write or rename removes the temp file. *)
let save path t =
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".tmp.%d.%s" (Unix.getpid ()) (Filename.basename path))
  in
  let oc = open_out_bin tmp in
  match output_string oc (write t); close_out oc; Sys.rename tmp path with
  | () -> ()
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let load path : (t, string) result =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | s -> read s
  | exception Sys_error msg -> Error msg

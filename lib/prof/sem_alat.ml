(* The semantic ALAT of the vm; see sem_alat.mli.
   [Interp_ref] keeps its own copy of this protocol as the oracle: any
   change here that alters the table's operation sequence must be
   mirrored there, or faulted runs stop picking the same victims. *)

type t = {
  tbl : (int * int, int) Hashtbl.t;   (* (frame serial, tag) -> address *)
  finj : Spec_stress.Faults.injector option;
  mutable fevents : int;               (* interference clock *)
  mutable serial : int;                (* last serial handed out *)
  mutable hi : int;                    (* no entry has a larger serial *)
}

let create ?faults () =
  { tbl = Hashtbl.create 32; finj = faults; fevents = 0; serial = 0; hi = 0 }

let enter_frame t =
  t.serial <- t.serial + 1;
  t.serial

(* Frames nest, so when [serial] returns every frame it called has
   already returned and dropped its entries: the table holds no serial
   above [serial], and none at or above it once its own are gone.  A
   frame that armed nothing and called no frame that did finds
   [hi < serial] and skips the scan. *)
let exit_frame t serial =
  if t.hi >= serial then begin
    t.hi <- serial - 1;
    if Hashtbl.length t.tbl > 0 then begin
      let dead =
        Hashtbl.fold
          (fun ((s, _) as k) _ acc -> if s = serial then k :: acc else acc)
          t.tbl []
      in
      List.iter (Hashtbl.remove t.tbl) dead
    end
  end

(* Interference only removes entries, so a faulted run reloads values
   that are current in memory — observable behavior is unchanged. *)
let interfere t =
  match t.finj with
  | None -> ()
  | Some inj ->
    t.fevents <- t.fevents + 1;
    Spec_stress.Faults.advance inj ~upto:t.fevents
      ~flush:(fun () -> Hashtbl.reset t.tbl)
      ~invalidate:(fun rng ->
        let n = Hashtbl.length t.tbl in
        if n > 0 then begin
          let k = Spec_stress.Srng.below rng n in
          let i = ref 0 and victim = ref None in
          Hashtbl.iter
            (fun key _ -> if !i = k then victim := Some key; incr i)
            t.tbl;
          match !victim with
          | Some key -> Hashtbl.remove t.tbl key
          | None -> ()
        end)

let arm t ~serial ~tag addr =
  interfere t;
  if serial > t.hi then t.hi <- serial;
  Hashtbl.replace t.tbl (serial, tag) addr

let check t ~serial ~tag addr =
  interfere t;
  match Hashtbl.find_opt t.tbl (serial, tag) with
  | Some a -> a = addr
  | None -> false

(* The empty-table/no-injector case is every store of a non-speculative
   run (and many stores of speculative ones): skipping it is
   unobservable — the interference clock only ticks under an injector,
   and there is nothing to invalidate. *)
let invalidate t addr =
  if t.finj != None || Hashtbl.length t.tbl > 0 then begin
    interfere t;
    let stale =
      Hashtbl.fold
        (fun k a acc -> if a = addr then k :: acc else acc)
        t.tbl []
    in
    List.iter (Hashtbl.remove t.tbl) stale
  end

let live t = Hashtbl.length t.tbl

(* The semantic ALAT of the vm; see sem_alat.mli for its two
   representations.  [Interp_ref] keeps its own copy of the injected
   one's protocol as the oracle: any change to it that alters the
   table's operation sequence must be mirrored there, or faulted runs
   stop picking the same victims. *)

type t = {
  tbl : (int * int, int) Hashtbl.t;   (* with an injector: (frame serial,
                                         tag) -> address *)
  finj : Spec_stress.Faults.injector option;
  mutable fevents : int;               (* interference clock *)
  mutable serial : int;                (* last serial handed out *)
  mutable hi : int;                    (* no entry in [tbl] has a larger
                                          serial *)
  mutable sers : int array;            (* without one: [n] entries in arm
                                          order *)
  mutable tags : int array;
  mutable addrs : int array;
  mutable n : int;
}

let create ?faults () =
  { tbl = Hashtbl.create 32; finj = faults;
    fevents = 0; serial = 0; hi = 0;
    sers = Array.make 16 0; tags = Array.make 16 0; addrs = Array.make 16 0;
    n = 0 }

let enter_frame t =
  t.serial <- t.serial + 1;
  t.serial

(* Frames nest, so when [serial] returns every frame it called has
   already returned and dropped its entries: the table holds no serial
   above [serial], and none at or above it once its own are gone.  The
   dense table's tail is [serial]'s entries; in the hashed one, a frame
   that armed nothing and called no frame that did finds [hi < serial]
   and skips the scan. *)
let exit_frame t serial =
  match t.finj with
  | None ->
    let sers = t.sers in
    let n = ref t.n in
    while !n > 0 && Array.unsafe_get sers (!n - 1) = serial do decr n done;
    t.n <- !n
  | Some _ ->
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
let interfere t inj =
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

(* [arm] and [check] find [serial]'s entry for [tag] by scanning, from
   the top, the tail of entries that [serial] armed. *)
let arm t ~serial ~tag addr =
  match t.finj with
  | None ->
    let sers = t.sers and tags = t.tags in
    let i = ref (t.n - 1) in
    while
      !i >= 0 && Array.unsafe_get sers !i = serial
      && Array.unsafe_get tags !i <> tag
    do decr i done;
    if !i >= 0 && Array.unsafe_get sers !i = serial then
      Array.unsafe_set t.addrs !i addr
    else begin
      let n = t.n in
      if n = Array.length sers then begin
        let widen a = Array.append a a in
        t.sers <- widen sers;
        t.tags <- widen tags;
        t.addrs <- widen t.addrs
      end;
      Array.unsafe_set t.sers n serial;
      Array.unsafe_set t.tags n tag;
      Array.unsafe_set t.addrs n addr;
      t.n <- n + 1
    end
  | Some inj ->
    interfere t inj;
    if serial > t.hi then t.hi <- serial;
    Hashtbl.replace t.tbl (serial, tag) addr

let check t ~serial ~tag addr =
  match t.finj with
  | None ->
    let sers = t.sers and tags = t.tags in
    let i = ref (t.n - 1) in
    while
      !i >= 0 && Array.unsafe_get sers !i = serial
      && Array.unsafe_get tags !i <> tag
    do decr i done;
    !i >= 0 && Array.unsafe_get sers !i = serial
    && Array.unsafe_get t.addrs !i = addr
  | Some inj ->
    interfere t inj;
    (match Hashtbl.find_opt t.tbl (serial, tag) with
     | Some a -> a = addr
     | None -> false)

(* An empty table is every store of a non-speculative run (and many
   stores of speculative ones): the dense scan ends at once, and only a
   store that hits an entry moves the ones above it down. *)
let invalidate t addr =
  match t.finj with
  | None ->
    let sers = t.sers and tags = t.tags and addrs = t.addrs in
    let n = t.n in
    let i = ref 0 in
    while !i < n && Array.unsafe_get addrs !i <> addr do incr i done;
    if !i < n then begin
      let j = ref !i in
      for k = !i + 1 to n - 1 do
        let a = Array.unsafe_get addrs k in
        if a <> addr then begin
          Array.unsafe_set sers !j (Array.unsafe_get sers k);
          Array.unsafe_set tags !j (Array.unsafe_get tags k);
          Array.unsafe_set addrs !j a;
          incr j
        end
      done;
      t.n <- !j
    end
  | Some inj ->
    interfere t inj;
    let stale =
      Hashtbl.fold
        (fun k a acc -> if a = addr then k :: acc else acc)
        t.tbl []
    in
    List.iter (Hashtbl.remove t.tbl) stale

let live t = if t.finj == None then t.n else Hashtbl.length t.tbl

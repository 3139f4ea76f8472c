type adversary = Adv_none | Adv_invert | Adv_drop of int

type plan = {
  seed : int;
  flush_period : int;
  inv_ppm : int;
  alat_entries : int option;
  adversary : adversary;
}

let null seed =
  { seed; flush_period = 0; inv_ppm = 0; alat_entries = None;
    adversary = Adv_none }

let is_null p =
  p.flush_period = 0 && p.inv_ppm = 0 && p.alat_entries = None
  && p.adversary = Adv_none

let parse ~seed spec =
  let ( let* ) = Result.bind in
  let int_of k v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (Printf.sprintf "--faults: %s wants a non-negative int, got %S" k v)
  in
  let field plan kv =
    match String.index_opt kv '=' with
    | None -> Error (Printf.sprintf "--faults: expected key=value, got %S" kv)
    | Some i ->
      let k = String.sub kv 0 i in
      let v = String.sub kv (i + 1) (String.length kv - i - 1) in
      (match k with
       | "flush" ->
         let* n = int_of k v in Ok { plan with flush_period = n }
       | "inv" ->
         let* n = int_of k v in Ok { plan with inv_ppm = n }
       | "alat" ->
         let* n = int_of k v in
         (* the machine's 2-way ALAT needs a power-of-two set count *)
         let sets = n / 2 in
         if sets = 0 || n <> 2 * sets || sets land (sets - 1) <> 0 then
           Error
             (Printf.sprintf
                "--faults: alat wants 2 x a power of two entries (2, 4, 8, \
                 ...), got %d" n)
         else Ok { plan with alat_entries = Some n }
       | "adv" ->
         (match v with
          | "none" -> Ok { plan with adversary = Adv_none }
          | "invert" -> Ok { plan with adversary = Adv_invert }
          | _ ->
            (match String.index_opt v ':' with
             | Some j when String.sub v 0 j = "drop" ->
               let* n =
                 int_of "adv=drop" (String.sub v (j + 1) (String.length v - j - 1))
               in
               Ok { plan with adversary = Adv_drop n }
             | _ ->
               Error
                 (Printf.sprintf
                    "--faults: adv wants none|invert|drop:PPM, got %S" v)))
       | _ -> Error (Printf.sprintf "--faults: unknown key %S" k))
  in
  String.split_on_char ',' spec
  |> List.filter (fun s -> s <> "")
  |> List.fold_left (fun acc kv -> let* plan = acc in field plan kv)
       (Ok (null seed))

let to_string p =
  let parts =
    (if p.flush_period > 0 then [ Printf.sprintf "flush=%d" p.flush_period ]
     else [])
    @ (if p.inv_ppm > 0 then [ Printf.sprintf "inv=%d" p.inv_ppm ] else [])
    @ (match p.alat_entries with
       | Some n -> [ Printf.sprintf "alat=%d" n ]
       | None -> [])
    @ (match p.adversary with
       | Adv_none -> []
       | Adv_invert -> [ "adv=invert" ]
       | Adv_drop ppm -> [ Printf.sprintf "adv=drop:%d" ppm ])
  in
  if parts = [] then "none" else String.concat "," parts

type injector = {
  plan : plan;
  rng : Srng.t;
  mutable mark : int;  (* time units already processed *)
  mutable until_flush : int;
  mutable n_flushes : int;
  mutable n_invalidations : int;
}

let injector plan ~scope =
  { plan; rng = Srng.of_path plan.seed scope; mark = 0;
    until_flush = plan.flush_period; n_flushes = 0; n_invalidations = 0 }

(* Runtime fault sources only — an adversarial-but-quiet plan needs no
   injector, and the zero point must take the exact unfaulted code path
   so baseline counters reproduce bit-for-bit. *)
let has_runtime_faults p = p.flush_period > 0 || p.inv_ppm > 0

let injector_opt plan ~scope =
  if has_runtime_faults plan then Some (injector plan ~scope) else None

let plan_of inj = inj.plan

let advance inj ~upto ~flush ~invalidate =
  if upto > inj.mark then begin
    for _t = inj.mark + 1 to upto do
      if inj.plan.flush_period > 0 then begin
        inj.until_flush <- inj.until_flush - 1;
        if inj.until_flush <= 0 then begin
          inj.until_flush <- inj.plan.flush_period;
          inj.n_flushes <- inj.n_flushes + 1;
          flush ()
        end
      end;
      if inj.plan.inv_ppm > 0 && Srng.chance inj.rng ~ppm:inj.plan.inv_ppm
      then begin
        inj.n_invalidations <- inj.n_invalidations + 1;
        invalidate inj.rng
      end
    done;
    inj.mark <- upto
  end

let flushes inj = inj.n_flushes
let invalidations inj = inj.n_invalidations

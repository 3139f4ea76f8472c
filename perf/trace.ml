(* Spans and counters recorded around calls into the compiler's layers.

   Spans are kept in memory and written as JSON lines at exit.  When
   tracing is off, [span] is a plain call and [add] does nothing, so the
   untraced run measures the program alone. *)

type span = {
  id : int;
  parent : int;  (* 0 for a top-level span *)
  op : int;      (* the benchmark operation the span belongs to *)
  name : string;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let spans : span list ref = ref []  (* newest first *)
let next_id = ref 1
let stack = ref [ 0 ]
let current_op = ref 0
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let reset ~on =
  enabled := on;
  spans := [];
  next_id := 1;
  stack := [ 0 ];
  current_op := 0;
  Hashtbl.reset counters

let set_op i = current_op := i

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let record id parent name t0 t1 =
  spans := { id; parent; op = !current_op; name; t0; t1 } :: !spans

(* Time [f] as span [name], a child of the innermost open span.
   [parts] names sub-steps the layer timed itself (the pass manager's
   per-pass wall times): they become child spans laid end to end from
   the span's start, so the span's self time is what they leave over. *)
let span ?(parts = fun _ -> []) name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = List.hd !stack in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      stack := List.tl !stack;
      record id parent name t0 t1
    in
    match f () with
    | v ->
      close ();
      ignore
        (List.fold_left
           (fun at (pname, dt) ->
             record (fresh_id ()) id pname at (at +. dt);
             at +. dt)
           t0 (parts v)
         : float);
      v
    | exception e ->
      close ();
      raise e
  end

let add name v =
  if !enabled then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

(* Self time per span name: each span's duration minus the time its
   child spans cover.  Children of one span never overlap (every layer
   call here is sequential), so their durations simply add. *)
let self_times (l : span list) : (string, float) Hashtbl.t =
  let child_time : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (s.t1 -. s.t0
           +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    l;
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let own =
        s.t1 -. s.t0
        -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
      in
      Hashtbl.replace self s.name
        (own +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
    l;
  self

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start\":%.6f,\
         \"end\":%.6f}\n"
        s.id s.parent s.op s.name s.t0 s.t1)
    (List.rev !spans);
  close_out oc

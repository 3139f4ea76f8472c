(** Content-addressed compile cache.

    A generic blob store: keys are hex digests computed by the caller
    (the driver hashes source text, pipeline variant, merged-profile
    digest and compiler schema version — see [Pipeline.cache_key]); the
    value is an opaque artifact string (a serialized program plus its
    stats, assembled by [Pipeline.write_artifact]).  Content addressing
    makes invalidation automatic: any input change produces a different
    key, and stale entries are simply never looked up again until
    evicted.

    Writes are atomic (temp file + rename) so a crashed compile never
    leaves a truncated artifact behind, and a failed write removes its
    temp file; unreadable entries are treated as misses.  An optional
    entry cap evicts least-recently-used artifacts by mtime — lookups
    touch their entry's mtime. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable store_failures : int;
}

type t = {
  dir : string;
  max_entries : int option;
  stats : stats;
}

let create ?max_entries dir =
  (match max_entries with
   | Some n when n < 1 -> invalid_arg "Cache.create: max_entries < 1"
   | _ -> ());
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Cache.create: %s is not a directory" dir);
  { dir; max_entries;
    stats =
      { hits = 0; misses = 0; stores = 0; evictions = 0; store_failures = 0 }
  }

let stats t = t.stats

let valid_key k =
  k <> ""
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       k

let path_of t key =
  if not (valid_key key) then invalid_arg "Cache.path_of: malformed key";
  Filename.concat t.dir (key ^ ".sart")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Look up [key]; a hit refreshes the entry's mtime so LRU eviction
    spares it. *)
let find t key =
  let path = path_of t key in
  match read_file path with
  | data ->
    t.stats.hits <- t.stats.hits + 1;
    (try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ());
    Some data
  | exception Sys_error _ ->
    t.stats.misses <- t.stats.misses + 1;
    None

(* A directory that vanished or cannot be read holds no entries. *)
let entries t =
  match Sys.readdir t.dir with
  | files ->
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f ".sart")
  | exception Sys_error _ -> []

(* Drop oldest entries (by mtime) until we are back under the cap.
   [keep] is the key just written, never evicted. *)
let evict t ~keep =
  match t.max_entries with
  | None -> ()
  | Some cap ->
    let aged =
      List.filter_map
        (fun f ->
          let p = Filename.concat t.dir f in
          match Unix.stat p with
          | st -> Some (st.Unix.st_mtime, f, p)
          | exception Unix.Unix_error _ -> None)
        (entries t)
      |> List.sort compare
    in
    let excess = List.length aged - cap in
    if excess > 0 then begin
      let dropped = ref 0 in
      List.iter
        (fun (_, f, p) ->
          if !dropped < excess && f <> keep ^ ".sart" then begin
            (try Sys.remove p with Sys_error _ -> ());
            t.stats.evictions <- t.stats.evictions + 1;
            incr dropped
          end)
        aged
    end

(* As [Store.save] writes: a failed flush raises before the rename, and
   any failure removes the temp file, which eviction would never see. *)
let store t key data =
  let path = path_of t key in
  let tmp =
    Filename.concat t.dir
      (Printf.sprintf ".tmp.%d.%s" (Unix.getpid ()) key)
  in
  let oc = open_out_bin tmp in
  (match output_string oc data; close_out oc; Sys.rename tmp path with
   | () -> ()
   | exception e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  t.stats.stores <- t.stats.stores + 1;
  evict t ~keep:key

let length t = List.length (entries t)

let stats_to_string t =
  Printf.sprintf "hits %d  misses %d  stores %d  evictions %d"
    t.stats.hits t.stats.misses t.stats.stores t.stats.evictions

(* Tests for the persistent FDO subsystem (lib/fdo + the pipeline's
   compile cache): store round-trips and the committed format golden,
   merge algebra (commutativity / associativity / identity) and decay,
   stale-profile matching on edited sources (sound: outputs always
   bit-identical to the unoptimized oracle), full-fidelity SIR
   serialization, the content-addressed cache (hit / miss / evict /
   corrupt-artifact recovery). *)

open Spec_ir
open Spec_fdo
open Spec_driver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* A small deterministic kernel exercising all three profile kinds:
   indirect references through a pointer (alias LOC sets), a call with a
   global side effect (call mod/ref), and branches (edge profile). *)
let base_src =
  "int A[50];\n\
   int B[50];\n\
   int g;\n\
   int bump(int k) { g = g + k; return g; }\n\
   int main() {\n\
  \  int i; int s; int* p;\n\
  \  s = 0;\n\
  \  for (i = 0; i < 50; i++) { A[i] = i; B[i] = 2 * i; }\n\
  \  p = &g;\n\
  \  *p = 5;\n\
  \  for (i = 0; i < 50; i++) {\n\
  \    if (i < 25) { s = s + A[i]; } else { s = s + B[i]; }\n\
  \    s = s + *p;\n\
  \  }\n\
  \  s = s + bump(3);\n\
  \  *p = *p + 1;\n\
  \  s = s + g;\n\
  \  print_int(s);\n\
  \  return 0;\n\
   }\n"

let store_of src =
  let prog, prof, _ = Pipeline.train src in
  (Store.of_profile prog prof, prog)

(* ---- textio ---- *)

let test_textio_roundtrip () =
  List.iter
    (fun s ->
      let lx = Textio.make (Textio.quote s ^ " tail") in
      check_str "quoted round trip" s (Textio.token lx);
      check_str "lexer continues" "tail" (Textio.token lx))
    [ ""; "plain"; "with space"; "q\"uote"; "back\\slash"; "new\nline";
      "tab\there"; "\x01\x7f\xff"; "mixed \"x\\y\"\n\t\x02" ]

(* ---- store round-trip and golden ---- *)

let test_store_roundtrip () =
  let store, _ = store_of base_src in
  let text = Store.write store in
  (match Store.read text with
   | Ok back ->
     check_bool "read(write(s)) == s" true (Store.equal store back);
     check_str "write is a fixpoint" text (Store.write back)
   | Error e -> Alcotest.fail ("store read failed: " ^ e));
  (match Store.check text with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("store validate failed: " ^ e))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The committed golden pins the [specprof/1] byte format: regenerating
   the store from the same source must reproduce the file exactly, so
   any accidental format change (field order, quoting, sorting) fails
   here before it can corrupt persisted profiles in the field. *)
let test_store_golden () =
  let golden = read_file "golden.sprof" in
  let store, _ = store_of base_src in
  check_str "golden store bytes" golden (Store.write store);
  (match Store.check golden with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("golden failed validation: " ^ e))

let test_store_rejects_drift () =
  let store, _ = store_of base_src in
  let text = Store.write store in
  (* version drift *)
  let wrong =
    "specprof/2" ^ String.sub text 10 (String.length text - 10)
  in
  (match Store.read wrong with
   | Ok _ -> Alcotest.fail "accepted unknown version"
   | Error _ -> ());
  (* structural drift: negative count *)
  (match Store.validate { store with Store.runs = -1 } with
   | Ok () -> Alcotest.fail "accepted negative run count"
   | Error _ -> ());
  (* trailing garbage *)
  (match Store.read (text ^ "\nextra") with
   | Ok _ -> Alcotest.fail "accepted trailing data"
   | Error _ -> ())

(* ---- merge algebra ---- *)

let test_merge_laws () =
  let a, _ = store_of base_src in
  (* a structurally different store: different source, different sites *)
  let b, _ =
    store_of
      "int g; int main() { int* p; p = &g; *p = 7; print_int(*p + g); \
       return 0; }"
  in
  let c = Store.merge a b in
  check_bool "commutative" true (Store.equal c (Store.merge b a));
  check_bool "associative" true
    (Store.equal
       (Store.merge (Store.merge a b) c)
       (Store.merge a (Store.merge b c)));
  check_bool "left identity" true (Store.equal a (Store.merge Store.empty a));
  check_bool "right identity" true
    (Store.equal a (Store.merge a Store.empty));
  check_int "runs add" (a.Store.runs + b.Store.runs) c.Store.runs;
  check_str "merge write deterministic" (Store.write c)
    (Store.write (Store.merge b a))

let total_counts (s : Store.t) =
  List.fold_left (fun acc (_, n) -> acc + n) 0 s.Store.entries
  + List.fold_left (fun acc (_, n) -> acc + n) 0 s.Store.edges
  + List.fold_left
      (fun acc (e : Store.site_entry) ->
        List.fold_left (fun acc (_, n) -> acc + n) (acc + e.Store.e_count)
          e.Store.e_locs)
      0 s.Store.sites

let test_decay () =
  let a, _ = store_of base_src in
  check_bool "decay 1.0 is identity" true
    (Store.equal a (Store.decay ~lambda:1.0 a));
  let half = Store.decay ~lambda:0.5 a in
  check_bool "decay shrinks counts" true
    (total_counts half <= total_counts a);
  let tiny = Store.decay ~lambda:0.001 a in
  check_bool "decay monotone" true (total_counts tiny <= total_counts half);
  (match Store.decay ~lambda:1.5 a with
   | _ -> Alcotest.fail "accepted lambda > 1"
   | exception Invalid_argument _ -> ());
  (* the intended usage pattern: old evidence decayed, fresh merged in *)
  let aged = Store.merge (Store.decay ~lambda:0.5 a) a in
  check_int "aged store counts runs" (2 * a.Store.runs) aged.Store.runs

(* ---- stale-profile matching: soundness on edited sources ---- *)

let interp_output prog =
  (Spec_prof.Vm.run prog).Spec_prof.Interp.output

let compile_with_store store src =
  let prog = Lower.compile src in
  let prof, mr = Store.bind store prog in
  let r =
    Pipeline.compile_and_optimize ~edge_profile:(Some prof) src
      (Pipeline.Spec_profile prof)
  in
  (r, mr)

(* Hand-listed source mutations, from cosmetic to structural.  For every
   one, compiling with the *old* profile must (a) report a match rate
   and (b) produce output bit-identical to the unoptimized oracle —
   unmatched evidence degrades to no-speculation, never to wrong
   code. *)
let mutations =
  [ ("comment only",
     "int A[50];\nint B[50];\nint g;\n"
     ^ "int bump(int k) { g = g + k; return g; }\n"
     ^ "int main() {\n  int i; int s; int* p;\n  s = 0;\n"
     ^ "  for (i = 0; i < 50; i++) { A[i] = i; B[i] = 2 * i; }\n"
     ^ "  p = &g;\n  *p = 5;\n"
     ^ "  for (i = 0; i < 50; i++) {\n"
     ^ "    if (i < 25) { s = s + A[i]; } else { s = s + B[i]; }\n"
     ^ "    s = s + *p;\n  }\n"
     ^ "  s = s + bump(3);\n  *p = *p + 1;\n  s = s + g;\n"
     ^ "  print_int(s);\n  return 0;\n}\n");
    ("extra statement",
     "int A[50];\nint B[50];\nint g;\n"
     ^ "int bump(int k) { g = g + k; return g; }\n"
     ^ "int main() {\n  int i; int s; int* p;\n  s = 0;\n"
     ^ "  for (i = 0; i < 50; i++) { A[i] = i; B[i] = 2 * i; }\n"
     ^ "  p = &g;\n  *p = 5;\n"
     ^ "  for (i = 0; i < 50; i++) {\n"
     ^ "    if (i < 25) { s = s + A[i]; } else { s = s + B[i]; }\n"
     ^ "    s = s + *p;\n  }\n"
     ^ "  s = s + 1;\n"
     ^ "  s = s + bump(3);\n  *p = *p + 1;\n  s = s + g;\n"
     ^ "  print_int(s);\n  return 0;\n}\n");
    ("renamed array",
     "int A[50];\nint C[50];\nint g;\n"
     ^ "int bump(int k) { g = g + k; return g; }\n"
     ^ "int main() {\n  int i; int s; int* p;\n  s = 0;\n"
     ^ "  for (i = 0; i < 50; i++) { A[i] = i; C[i] = 2 * i; }\n"
     ^ "  p = &g;\n  *p = 5;\n"
     ^ "  for (i = 0; i < 50; i++) {\n"
     ^ "    if (i < 25) { s = s + A[i]; } else { s = s + C[i]; }\n"
     ^ "    s = s + *p;\n  }\n"
     ^ "  s = s + bump(3);\n  *p = *p + 1;\n  s = s + g;\n"
     ^ "  print_int(s);\n  return 0;\n}\n");
    ("restructured main",
     "int A[50];\nint g;\n"
     ^ "int bump(int k) { g = g + k; return g; }\n"
     ^ "int main() {\n  int i; int s; int* p;\n  s = 0;\n"
     ^ "  p = &g;\n  *p = 2;\n"
     ^ "  for (i = 0; i < 30; i++) { A[i] = i; s = s + A[i] + *p; }\n"
     ^ "  s = s + bump(5);\n"
     ^ "  print_int(s);\n  return 0;\n}\n") ]

let test_stale_matching_sound () =
  let store, _ = store_of base_src in
  List.iter
    (fun (label, edited) ->
      let oracle = interp_output (Lower.compile edited) in
      let r, mr = compile_with_store store edited in
      let rate = Store.match_rate mr in
      check_bool (label ^ ": match rate in range") true
        (rate >= 0.0 && rate <= 1.0);
      check_str (label ^ ": output == unoptimized oracle") oracle
        (interp_output r.Pipeline.prog);
      ignore (Store.report_to_string mr : string))
    mutations;
  (* an unedited source must fully re-bind *)
  let _, mr = compile_with_store store base_src in
  check_bool "identical source matches fully" true
    (Store.match_rate mr = 1.0)

(* ---- merged profile == single-run profile decisions ---- *)

(* Merging two identical runs doubles every count, so the printed block
   frequencies double too; the speculation *decisions* (the code) must
   not change.  Blank out the digits after "freq " before comparing. *)
let strip_freqs s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 5 <= n && String.sub s !i 5 = "freq " then begin
      Buffer.add_string b "freq ";
      i := !i + 5;
      while
        !i < n && (match s.[!i] with '0' .. '9' | '.' -> true | _ -> false)
      do
        incr i
      done
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let test_merge_same_decisions () =
  let store, _ = store_of base_src in
  let merged = Store.merge store store in
  check_int "merged counts two runs" 2 merged.Store.runs;
  let single, _ = compile_with_store store base_src in
  let doubled, _ = compile_with_store merged base_src in
  check_str "same speculation decisions"
    (strip_freqs (Pp.prog_to_string single.Pipeline.prog))
    (strip_freqs (Pp.prog_to_string doubled.Pipeline.prog));
  check_str "same outputs"
    (interp_output single.Pipeline.prog)
    (interp_output doubled.Pipeline.prog)

(* ---- sir_io: full-fidelity program serialization ---- *)

let test_sir_io_roundtrip () =
  let prog, prof, _ = Pipeline.train base_src in
  ignore (prog : Sir.prog);
  let r =
    Pipeline.compile_and_optimize ~edge_profile:(Some prof) base_src
      (Pipeline.Spec_profile prof)
  in
  let text = Sir_io.write r.Pipeline.prog in
  match Sir_io.read text with
  | Error e -> Alcotest.fail ("sir_io read failed: " ^ e)
  | Ok back ->
    check_str "pretty-printed programs identical"
      (Pp.prog_to_string r.Pipeline.prog)
      (Pp.prog_to_string back);
    check_str "deserialized program runs identically"
      (interp_output r.Pipeline.prog)
      (interp_output back);
    check_str "write is a fixpoint" text (Sir_io.write back)

(* ---- specsir/2: safety metadata (contracts + deopt descriptors) ---- *)

let cipher_src =
  Spec_workloads.Workloads.train_source
    (List.find
       (fun w -> w.Spec_workloads.Workloads.name = "cipher")
       Spec_workloads.Workloads.all)

let n_secret (p : Sir.prog) =
  let n = ref 0 in
  Symtab.iter (fun v -> if v.Symtab.vsecret then incr n) p.Sir.syms;
  !n

let test_sir_io_safety_roundtrip () =
  (* secret contract bits and deopt descriptors are compile inputs for
     the safety subsystem: a cache hit losing either would silently
     change verdicts or recovery, so the round trip must keep both *)
  let r =
    Pipeline.compile_and_optimize ~deopt:true cipher_src
      Pipeline.Spec_heuristic
  in
  let text = Sir_io.write r.Pipeline.prog in
  match Sir_io.read text with
  | Error e -> Alcotest.fail ("sir_io read failed: " ^ e)
  | Ok back ->
    check_bool "program carries secrets" true (n_secret r.Pipeline.prog > 0);
    check_int "secret bits preserved"
      (n_secret r.Pipeline.prog) (n_secret back);
    check_bool "program carries descriptors" true
      (Spec_safety.Deopt.count r.Pipeline.prog > 0);
    check_int "deopt descriptors preserved"
      (Spec_safety.Deopt.count r.Pipeline.prog)
      (Spec_safety.Deopt.count back);
    check_str "checker report identical on both sides"
      (Spec_safety.Spectct.to_string (Spec_safety.Taint.check r.Pipeline.prog))
      (Spec_safety.Spectct.to_string (Spec_safety.Taint.check back));
    check_str "write is a fixpoint" text (Sir_io.write back)

let test_sir_io_rejects_drift () =
  let r = Pipeline.compile_and_optimize ~deopt:true cipher_src Pipeline.Base in
  let text = Sir_io.write r.Pipeline.prog in
  (* replace the first occurrence: enough to corrupt a header *)
  let sub ~sub:s ~by t =
    let ls = String.length s and lt = String.length t in
    let rec find i =
      if i > lt - ls then t
      else if String.sub t i ls = s then
        String.sub t 0 i ^ by ^ String.sub t (i + ls) (lt - i - ls)
      else find (i + 1)
    in
    find 0
  in
  List.iter
    (fun (what, bad) ->
      match Sir_io.read bad with
      | Ok _ -> Alcotest.failf "serializer drift accepted: %s" what
      | Error _ -> ())
    [ "unknown version tag", sub ~sub:"specsir/2" ~by:"specsir/9" text;
      "mangled section header", sub ~sub:"\nvars " ~by:"\nvarz " text;
      "mangled statement header", sub ~sub:"\nstmt " ~by:"\nstm " text;
      "truncated document", String.sub text 0 (String.length text - 4) ]

let test_artifact_roundtrip () =
  let r = Pipeline.compile_and_optimize base_src Pipeline.Base in
  let blob = Pipeline.write_artifact r in
  match Pipeline.read_artifact blob with
  | Error e -> Alcotest.fail ("artifact read failed: " ^ e)
  | Ok a ->
    check_bool "stats preserved" true (a.Pipeline.a_stats = r.Pipeline.stats);
    check_str "program preserved"
      (Pp.prog_to_string r.Pipeline.prog)
      (Pp.prog_to_string a.Pipeline.a_prog)

(* ---- content-addressed cache ---- *)

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "specfdo-test-%d-%s" (Unix.getpid ()) tag)
  in
  (match Sys.readdir dir with
   | files ->
     Array.iter (fun f -> Sys.remove (Filename.concat dir f)) files
   | exception Sys_error _ -> ());
  dir

(* [Store.save] over an existing store renames a complete temp file into
   place: the path gets a new inode (an in-place rewrite would keep the
   old one, truncated first), no temp file is left behind, and the
   store reads back equal *)
let test_store_save_atomic () =
  let dir = fresh_dir "save" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir "unit.sprof" in
  let old, _ = store_of base_src in
  let store = Store.merge old old in
  Store.save path old;
  let ino0 = (Unix.stat path).Unix.st_ino in
  Store.save path store;
  check_bool "saved over a new inode" true
    ((Unix.stat path).Unix.st_ino <> ino0);
  check_bool "no temp file left" true
    (Array.for_all
       (fun f -> not (String.length f >= 5 && String.sub f 0 5 = ".tmp."))
       (Sys.readdir dir));
  (match Store.load path with
   | Ok back -> check_bool "reads back equal" true (Store.equal store back)
   | Error e -> Alcotest.fail ("saved store unreadable: " ^ e));
  Sys.remove path;
  (* a save whose rename fails (a directory squats on the path) raises
     and takes its temp file with it *)
  Unix.mkdir path 0o755;
  (match Store.save path store with
   | () -> Alcotest.fail "saved over a directory"
   | exception Sys_error _ -> ());
  Unix.rmdir path;
  check_bool "no temp file left after a failed save" true
    (Array.for_all
       (fun f -> not (String.starts_with ~prefix:".tmp." f))
       (Sys.readdir dir))

let test_cache_blob_store () =
  let c = Cache.create (fresh_dir "blob") in
  let key = String.make 32 'a' in
  check_bool "miss on empty" true (Cache.find c key = None);
  Cache.store c key "payload";
  check_bool "hit after store" true (Cache.find c key = Some "payload");
  let st = Cache.stats c in
  check_int "one hit" 1 st.Cache.hits;
  check_int "one miss" 1 st.Cache.misses;
  check_int "one store" 1 st.Cache.stores;
  (match Cache.find c "not-a-hex-key!" with
   | _ -> Alcotest.fail "accepted malformed key"
   | exception Invalid_argument _ -> ())

let test_cache_eviction () =
  let c = Cache.create ~max_entries:1 (fresh_dir "evict") in
  Cache.store c (String.make 32 'a') "one";
  Cache.store c (String.make 32 'b') "two";
  check_int "capped at one entry" 1 (Cache.length c);
  check_int "one eviction" 1 (Cache.stats c).Cache.evictions;
  check_bool "newest survives" true
    (Cache.find c (String.make 32 'b') = Some "two")

let test_cache_pipeline_hit () =
  let c = Cache.create (fresh_dir "pipe") in
  let compile () =
    Pipeline.compile_and_optimize ~cache:c base_src Pipeline.Base
  in
  let cold = compile () in
  check_bool "cold compile is not from cache" false cold.Pipeline.from_cache;
  check_bool "cold compile ran passes" true
    (Passes.total_runs cold.Pipeline.report > 0);
  let warm = compile () in
  check_bool "warm compile is from cache" true warm.Pipeline.from_cache;
  check_int "warm compile ran zero passes" 0
    (Passes.total_runs warm.Pipeline.report);
  check_str "warm program identical"
    (Pp.prog_to_string cold.Pipeline.prog)
    (Pp.prog_to_string warm.Pipeline.prog);
  check_bool "warm stats identical" true
    (warm.Pipeline.stats = cold.Pipeline.stats);
  (* different variant, different key: no false sharing *)
  let other =
    Pipeline.compile_and_optimize ~cache:c base_src Pipeline.Spec_heuristic
  in
  check_bool "different variant misses" false other.Pipeline.from_cache

let test_cache_corrupt_artifact () =
  let dir = fresh_dir "corrupt" in
  let c = Cache.create dir in
  let compile () =
    Pipeline.compile_and_optimize ~cache:c base_src Pipeline.Base
  in
  let cold = compile () in
  let path =
    match Sys.readdir dir with
    | [| f |] -> Filename.concat dir f
    | _ -> Alcotest.fail "expected exactly one artifact"
  in
  let entry = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length entry in
  (* the stats line sits between the first two newlines; the program
     text runs from the second to the end, its [end] line last *)
  let stats_at = String.index entry '\n' + 1 in
  let sir_at = String.index_from entry stats_at '\n' + 1 in
  check_str "the program text follows the stats line" Sir_io.version
    (String.sub entry sir_at (String.length Sir_io.version));
  check_str "the program text ends the entry" "\nend\n"
    (String.sub entry (n - 5) 5);
  (* rewrite the stored entry behind the cache's back: an older-format
     stub, then truncations of the real entry *)
  List.iter
    (fun (what, blob) ->
      Out_channel.with_open_bin path (fun oc -> output_string oc blob);
      let again = compile () in
      check_bool (what ^ ": recompiles") false again.Pipeline.from_cache;
      check_str (what ^ ": recompiled program identical")
        (Pp.prog_to_string cold.Pipeline.prog)
        (Pp.prog_to_string again.Pipeline.prog);
      (* and the overwrite repaired the entry *)
      check_bool (what ^ ": repaired entry hits") true
        (compile ()).Pipeline.from_cache)
    [ "older format", "specart/1 stats";
      "cut in the stats line",
      String.sub entry 0 ((stats_at + sir_at) / 2);
      "cut in the program text",
      String.sub entry 0 ((sir_at + n) / 2);
      "cut before the end line", String.sub entry 0 (n - 4) ]

(* A store that cannot land (here a directory squats on the entry's
   path, so the rename fails) raises and leaves no temp file: temp
   names do not end in [.sart], so nothing would ever evict one *)
let test_cache_store_failure () =
  let dir = fresh_dir "store-fail" in
  let c = Cache.create dir in
  let key = "abc123" in
  let squat = Filename.concat dir (key ^ ".sart") in
  Unix.mkdir squat 0o755;
  Fun.protect
    ~finally:(fun () -> Unix.rmdir squat)
    (fun () ->
      (match Cache.store c key "payload" with
       | () -> Alcotest.fail "store over a directory succeeded"
       | exception Sys_error _ -> ());
      check_bool "no temp file left" true
        (Array.for_all
           (fun f -> not (String.starts_with ~prefix:".tmp." f))
           (Sys.readdir dir));
      check_int "failed store not counted" 0 (Cache.stats c).Cache.stores)

let test_cache_profile_needs_digest () =
  let c = Cache.create (fresh_dir "digest") in
  let prog, prof, _ = Pipeline.train base_src in
  let store = Store.of_profile prog prof in
  let digest = Store.digest store in
  (* profile-fed compile without a digest must bypass the cache *)
  let r1 =
    Pipeline.compile_and_optimize ~cache:c ~edge_profile:(Some prof)
      base_src (Pipeline.Spec_profile prof)
  in
  check_bool "no digest: bypass" false r1.Pipeline.from_cache;
  check_int "no digest: no store" 0 (Cache.stats c).Cache.stores;
  (* with a digest it caches *)
  let r2 =
    Pipeline.compile_and_optimize ~cache:c ~edge_profile:(Some prof)
      ~profile_digest:digest base_src (Pipeline.Spec_profile prof)
  in
  check_bool "cold with digest" false r2.Pipeline.from_cache;
  let r3 =
    Pipeline.compile_and_optimize ~cache:c ~edge_profile:(Some prof)
      ~profile_digest:digest base_src (Pipeline.Spec_profile prof)
  in
  check_bool "warm with digest" true r3.Pipeline.from_cache;
  check_str "warm profile compile identical"
    (Pp.prog_to_string r2.Pipeline.prog)
    (Pp.prog_to_string r3.Pipeline.prog)

let suite =
  [ Alcotest.test_case "textio round trip" `Quick test_textio_roundtrip;
    Alcotest.test_case "store round trip" `Quick test_store_roundtrip;
    Alcotest.test_case "store format golden" `Quick test_store_golden;
    Alcotest.test_case "store rejects drift" `Quick test_store_rejects_drift;
    Alcotest.test_case "store save is atomic" `Quick test_store_save_atomic;
    Alcotest.test_case "merge laws" `Quick test_merge_laws;
    Alcotest.test_case "decay" `Quick test_decay;
    Alcotest.test_case "stale matching is sound" `Quick
      test_stale_matching_sound;
    Alcotest.test_case "merged profile, same decisions" `Quick
      test_merge_same_decisions;
    Alcotest.test_case "sir_io round trip" `Quick test_sir_io_roundtrip;
    Alcotest.test_case "sir_io safety metadata round trip" `Quick
      test_sir_io_safety_roundtrip;
    Alcotest.test_case "sir_io rejects drift" `Quick
      test_sir_io_rejects_drift;
    Alcotest.test_case "artifact round trip" `Quick test_artifact_roundtrip;
    Alcotest.test_case "cache blob store" `Quick test_cache_blob_store;
    Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
    Alcotest.test_case "cache pipeline hit" `Quick test_cache_pipeline_hit;
    Alcotest.test_case "cache corrupt artifact" `Quick
      test_cache_corrupt_artifact;
    Alcotest.test_case "cache store failure leaves no temp file" `Quick
      test_cache_store_failure;
    Alcotest.test_case "profile compiles need a digest" `Quick
      test_cache_profile_needs_digest ]

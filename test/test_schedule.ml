(* Tests for the local ITL list scheduler. *)

open Spec_ir
open Spec_driver
open Spec_codegen
open Spec_machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let lower_opt src variant =
  let prof = Pipeline.profile_of_source src in
  let r =
    Pipeline.compile_and_optimize ~edge_profile:(Some prof) src variant
  in
  Codegen.lower r.Pipeline.prog

let test_semantics_preserved () =
  let srcs =
    [ "int a[16]; int main(){ int s; s = 0; \
       for (int i = 0; i < 16; i++) a[i] = i * 3; \
       for (int i = 0; i < 16; i++) s += a[i]; \
       print_int(s); return 0; }";
      "float v[32]; int main(){ float s; s = 0.0; \
       for (int i = 0; i < 32; i++) v[i] = (float)(i) / 2.0; \
       for (int i = 0; i < 32; i++) s = s + v[i] * v[i]; \
       print_flt(s); return 0; }";
      "int fib(int n){ if (n < 2) return n; return fib(n-1) + fib(n-2); } \
       int main(){ print_int(fib(11)); return 0; }" ]
  in
  List.iter
    (fun src ->
      let plain = lower_opt src Pipeline.Base in
      let sched = lower_opt src Pipeline.Base in
      ignore (Schedule.run sched : Schedule.stats);
      let r1 = Machine.run plain in
      let r2 = Machine.run sched in
      check_str "output unchanged" r1.Machine.output r2.Machine.output;
      (* memory-system behaviour must be identical *)
      check_int "same loads" (Machine.loads_retired r1.Machine.perf)
        (Machine.loads_retired r2.Machine.perf);
      check_int "same stores" r1.Machine.perf.Machine.stores
        r2.Machine.perf.Machine.stores)
    srcs

let test_speculative_code_preserved () =
  let src =
    "int g; int h; \
     int main(){ int s; s = 0; g = 7; int* w; w = &h; \
     if (rnd(1000) == 999) w = &g; \
     for (int i = 0; i < 100; i++) { s = s + g; *w = i; } \
     print_int(s); print_int(h); return 0; }"
  in
  let plain = lower_opt src Pipeline.Spec_heuristic in
  let sched = lower_opt src Pipeline.Spec_heuristic in
  ignore (Schedule.run sched : Schedule.stats);
  let r1 = Machine.run plain in
  let r2 = Machine.run sched in
  check_str "output unchanged" r1.Machine.output r2.Machine.output;
  (* check/ALAT behaviour is untouched because memory order is kept *)
  check_int "same checks" r1.Machine.perf.Machine.checks
    r2.Machine.perf.Machine.checks;
  check_int "same check misses" r1.Machine.perf.Machine.check_misses
    r2.Machine.perf.Machine.check_misses

let test_scheduler_hides_latency () =
  (* a long-latency FP load whose consumer is immediately next, followed
     by plenty of independent integer work the scheduler can move up *)
  let src =
    "float v[8]; int main(){ float acc; acc = 0.0; int k; k = 1; \
     for (int i = 0; i < 2000; i++) { \
       acc = acc + v[i % 8] * 2.0; \
       k = k * 3 + 1; k = k % 1000; k = k + i; k = k % 777; \
     } \
     print_flt(acc); print_int(k); return 0; }"
  in
  let plain = lower_opt src Pipeline.Base in
  let sched = lower_opt src Pipeline.Base in
  let st = Schedule.run sched in
  check_bool "scheduler moved instructions" true (st.Schedule.moved > 0);
  let r1 = Machine.run plain in
  let r2 = Machine.run sched in
  check_str "output unchanged" r1.Machine.output r2.Machine.output;
  check_bool "scheduling does not slow the hot loop" true
    (r2.Machine.perf.Machine.cycles
     <= r1.Machine.perf.Machine.cycles + r1.Machine.perf.Machine.cycles / 50)

(* property: scheduling never changes observable behaviour *)
let prop_schedule_differential =
  QCheck.Test.make ~count:40 ~name:"scheduling preserves behaviour"
    (QCheck.make ~print:Fun.id
       QCheck.Gen.(
         let* n = int_range 3 10 in
         let* alias_pct = int_range 0 100 in
         return
           (Printf.sprintf
              "int a[4]; int b[4]; \
               int main(){ int* q; int s; s = 0; q = &b[0]; \
               for (int i = 0; i < %d; i++) { \
                 if (rnd(100) < %d) q = &a[i %% 4]; else q = &b[i %% 4]; \
                 *q = i; s += a[0] + a[i %% 4] + b[1] + i * 5; } \
               print_int(s); return 0; }"
              n alias_pct)))
    (fun src ->
      let plain = lower_opt src Pipeline.Spec_heuristic in
      let sched = lower_opt src Pipeline.Spec_heuristic in
      ignore (Schedule.run sched : Schedule.stats);
      let r1 = Machine.run plain in
      let r2 = Machine.run sched in
      r1.Machine.output = r2.Machine.output
      && r1.Machine.perf.Machine.checks = r2.Machine.perf.Machine.checks
      && r1.Machine.perf.Machine.check_misses
         = r2.Machine.perf.Machine.check_misses)

(* ---- the scheduler's contract on random ITL blocks ---- *)

(* The dependence rules, stated pairwise: i (< j) must precede j when j
   reads or writes a register whose last def before j is i (RAW, WAW),
   when j writes a register i read after that register's last def
   before j (WAR), or when both touch memory with no memory-touching
   instruction between them. *)
let uses = function
  | Itl.Movi _ | Itl.Lea _ -> []
  | Itl.Mov (_, a) | Itl.Un (_, _, _, a) -> [ a ]
  | Itl.Ld { addr; dst; kind; _ } ->
    if kind = Itl.Lchk then [ addr; dst ] else [ addr ]
  | Itl.Alu (_, _, _, a, b) -> [ a; b ]
  | Itl.St { src; addr; _ } -> [ src; addr ]
  | Itl.Call { args; _ } -> args

let defs = function
  | Itl.Movi (d, _) | Itl.Mov (d, _) | Itl.Lea (d, _) | Itl.Un (_, _, d, _)
  | Itl.Ld { dst = d; _ } | Itl.Alu (_, _, d, _, _) -> [ d ]
  | Itl.St _ -> []
  | Itl.Call { ret; _ } -> Option.to_list ret

let touches_memory = function
  | Itl.Ld _ | Itl.St _ | Itl.Call _ -> true
  | _ -> false

let depends (a : Itl.insn array) i j =
  let last_def r =
    let rec go k =
      if k < 0 then -1 else if List.mem r (defs a.(k)) then k else go (k - 1)
    in
    go (j - 1)
  in
  let rec mem_between k =
    k < j && (touches_memory a.(k) || mem_between (k + 1))
  in
  List.exists (fun r -> last_def r = i) (uses a.(j) @ defs a.(j))
  || List.exists
       (fun r -> List.mem r (uses a.(i)) && last_def r < i)
       (defs a.(j))
  || (touches_memory a.(i) && touches_memory a.(j)
      && not (mem_between (i + 1)))

(* [None] when [sched], a reordering of [orig], respects every
   dependence and makes each pick the ready instruction of greatest
   height, ties to the lowest index; otherwise what is wrong *)
let check_block (orig : Itl.insn array) (sched : Itl.insn list) =
  let n = Array.length orig in
  let order =
    List.map
      (fun i ->
        let rec find k = if orig.(k) == i then k else find (k + 1) in
        find 0)
      sched
  in
  if List.sort compare order <> List.init n Fun.id then
    Some "not a permutation"
  else begin
    let dep = Array.init n (fun i -> Array.init n (fun j -> i < j && depends orig i j)) in
    let height = Array.make n 0 in
    for i = n - 1 downto 0 do
      let h = ref 0 in
      for j = i + 1 to n - 1 do
        if dep.(i).(j) then h := max !h height.(j)
      done;
      height.(i) <- !h + Schedule.latency orig.(i)
    done;
    let done_ = Array.make n false in
    let rec go pos = function
      | [] -> None
      | j :: rest ->
        let ready k =
          (not done_.(k))
          && List.for_all (fun i -> done_.(i) || not dep.(i).(k))
               (List.init n Fun.id)
        in
        if not (ready j) then Some (Printf.sprintf "pick %d (insn %d) not ready" pos j)
        else begin
          let best = ref (-1) in
          for k = n - 1 downto 0 do
            if ready k && (!best < 0 || height.(k) >= height.(!best)) then
              best := k
          done;
          if !best <> j then
            Some (Printf.sprintf "pick %d is insn %d, not %d" pos j !best)
          else (done_.(j) <- true; go (pos + 1) rest)
        end
    in
    go 0 order
  end

let gen_insn nregs site =
  let open QCheck.Gen in
  let reg = int_bound (nregs - 1) in
  frequency
    [ (2, map2 (fun d k -> Itl.Movi (d, Sir.Cint k)) reg small_nat);
      (2, map2 (fun d a -> Itl.Mov (d, a)) reg reg);
      (1, map2 (fun d v -> Itl.Lea (d, v)) reg small_nat);
      (5, map4
            (fun dst addr fp kind -> Itl.Ld { dst; addr; fp; kind })
            reg reg bool
            (oneofl [ Itl.Lnorm; Itl.Ladv; Itl.Lchk; Itl.Lspec; Itl.Lsa ]));
      (3, map3 (fun src addr fp -> Itl.St { src; addr; fp }) reg reg bool);
      (4, map3
            (fun (op, fp) d (a, b) -> Itl.Alu (op, fp, d, a, b))
            (pair (oneofl Sir.[ Add; Mul; Div; Lt; Eq; Shl ]) bool)
            reg (pair reg reg));
      (1, map3
            (fun (op, fp) d a -> Itl.Un (op, fp, d, a))
            (pair (oneofl Sir.[ Neg; I2f ]) bool) reg reg);
      (2, map2
            (fun args ret -> Itl.Call { callee = "f"; args; ret; site })
            (list_size (int_bound 3) reg) (opt reg)) ]

(* functions of random register counts, each with blocks of up to 40
   instructions: the scheduler's scratch is reused across all of them *)
let gen_funcs =
  let open QCheck.Gen in
  list_size (int_range 1 3)
    (let* nregs = int_range 1 10 in
     let* blocks =
       list_size (int_range 1 4)
         (list_size (int_bound 40) (gen_insn nregs 0))
     in
     return (nregs, blocks))

let prop_schedule_contract =
  QCheck.Test.make ~count:300
    ~name:"schedules respect dependences and pick by height"
    (QCheck.make gen_funcs)
    (fun funcs ->
      let mp =
        { Itl.mp_funcs = Hashtbl.create 4; mp_order = [];
          mp_sir = Sir.create_prog () }
      in
      let origs =
        List.mapi
          (fun k (nregs, blocks) ->
            let name = Printf.sprintf "f%d" k in
            let f =
              { Itl.mf_name = name; mf_formals = [];
                mf_blocks =
                  Array.of_list
                    (List.map
                       (fun insns -> { Itl.insns; mterm = Itl.Tret None })
                       blocks);
                mf_nregs = nregs }
            in
            Hashtbl.replace mp.Itl.mp_funcs name f;
            (f, List.map Array.of_list blocks))
          funcs
      in
      let st = Schedule.run mp in
      let blocks = ref 0 and moved = ref 0 in
      List.iter
        (fun ((f : Itl.mfunc), olds) ->
          List.iteri
            (fun b orig ->
              let sched = f.Itl.mf_blocks.(b).Itl.insns in
              (match check_block orig sched with
               | Some why -> QCheck.Test.fail_report why
               | None -> ());
              if Array.length orig > 1 then incr blocks;
              List.iteri
                (fun pos i -> if orig.(pos) != i then incr moved)
                sched)
            olds)
        origs;
      st.Schedule.blocks = !blocks && st.Schedule.moved = !moved)

(* speccc's machine path runs scheduled code, as every harness table
   does: `speccc run --machine` reports the cycles of the lowered and
   scheduled program, which differ from the unscheduled run's *)
let test_cli_machine_is_scheduled () =
  let src =
    "float v[8]; int main(){ float acc; acc = 0.0; int k; k = 1; \
     for (int i = 0; i < 500; i++) { \
       acc = acc + v[i % 8] * 2.0; k = k * 3 + 1; k = k % 1000; } \
     print_flt(acc); print_int(k); return 0; }"
  in
  let file = Filename.temp_file "sched" ".c" in
  let err = Filename.temp_file "sched" ".err" in
  Out_channel.with_open_bin file (fun oc -> output_string oc src);
  let status =
    Sys.command
      (Printf.sprintf "../bin/speccc.exe run --machine -m base %s > /dev/null 2> %s"
         (Filename.quote file) (Filename.quote err))
  in
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin err In_channel.input_all)
  in
  Sys.remove file;
  Sys.remove err;
  check_int "speccc exit status" 0 status;
  let cycles =
    match List.find_opt (String.starts_with ~prefix:"cycles=") lines with
    | Some l -> Scanf.sscanf l "cycles=%d" Fun.id
    | None -> Alcotest.fail "no cycles= line"
  in
  (* the compile speccc makes: its training run's profile, through a
     store, as edge profile *)
  let prog, prof0, _ = Pipeline.train src in
  let prof, _ =
    Spec_fdo.Store.bind (Spec_fdo.Store.of_profile prog prof0) prog
  in
  let r =
    Pipeline.compile_and_optimize ~edge_profile:(Some prof) src Pipeline.Base
  in
  let mp = Codegen.lower r.Pipeline.prog in
  ignore (Schedule.run mp : Schedule.stats);
  check_int "cycles of the scheduled program"
    (Machine.run mp).Machine.perf.Machine.cycles cycles;
  check_bool "unscheduled cycles differ" true
    ((Machine.run_sir r.Pipeline.prog).Machine.perf.Machine.cycles <> cycles)

let suite =
  [ Alcotest.test_case "semantics preserved" `Quick test_semantics_preserved;
    Alcotest.test_case "speculative code preserved" `Quick test_speculative_code_preserved;
    Alcotest.test_case "hides latency" `Quick test_scheduler_hides_latency;
    QCheck_alcotest.to_alcotest prop_schedule_differential;
    QCheck_alcotest.to_alcotest prop_schedule_contract;
    Alcotest.test_case "speccc's machine path is scheduled" `Quick
      test_cli_machine_is_scheduled ]

(** Shared machine contract: the core identity, the performance-counter
    record, the run {!result} and the {!config} knobs.  The two timing
    models share one functional walk ({!Machine}), so everything here is
    common to both cores. *)

exception Machine_error of string

let error fmt = Fmt.kstr (fun s -> raise (Machine_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Core identity                                                       *)
(* ------------------------------------------------------------------ *)

type kind =
  | Inorder  (** the paper's EPIC model: scoreboard + ALAT *)
  | Ooo  (** modern control: ROB + LSQ + memory-dependence predictor *)

let all_kinds = [ Inorder; Ooo ]
let kind_name = function Inorder -> "inorder" | Ooo -> "ooo"

let kind_of_string = function
  | "inorder" | "in-order" -> Some Inorder
  | "ooo" | "out-of-order" -> Some Ooo
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Counters, result, config                                            *)
(* ------------------------------------------------------------------ *)

type counters = {
  mutable insns : int;
  mutable cycles : int;
  mutable data_cycles : int;        (* stall cycles waiting on loads *)
  mutable loads_plain : int;
  mutable loads_adv : int;
  mutable loads_spec : int;
  mutable checks : int;
  mutable check_misses : int;
  mutable stores : int;
  mutable branches : int;
  mutable rse_stall_cycles : int;
  mutable max_stacked_regs : int;
  (* out-of-order core only; the in-order backend leaves these at 0 *)
  mutable br_mispredicts : int;
  mutable lsq_replays : int;        (* memory-order violations replayed *)
  mutable mdp_poisons : int;        (* injected predictor/LSQ flushes *)
}

let fresh_counters () =
  { insns = 0; cycles = 0; data_cycles = 0; loads_plain = 0; loads_adv = 0;
    loads_spec = 0; checks = 0; check_misses = 0; stores = 0; branches = 0;
    rse_stall_cycles = 0; max_stacked_regs = 0; br_mispredicts = 0;
    lsq_replays = 0; mdp_poisons = 0 }

(** All loads that actually accessed memory. *)
let loads_retired c = c.loads_plain + c.loads_adv + c.loads_spec + c.check_misses

(** All retired load-class instructions including successful checks
    (Figure 11's denominator). *)
let loads_retired_with_checks c = loads_retired c + (c.checks - c.check_misses)

type result = {
  ret_int : int;
  output : string;
  perf : counters;
  alat : Alat.t;
}

(** Memory-dependence predictor for the out-of-order core's LSQ. *)
type mdp =
  | Mdp_none  (** always speculate loads past unresolved stores *)
  | Mdp_last_violator
  | Mdp_store_set

type config = {
  physical_stacked_regs : int;
  alat_entries : int;
  call_overhead : int;
  heap_bytes : int;
  fuel : int;
  issue_width : int;               (* in-order issue slots per cycle *)
  (* out-of-order core (ignored by the in-order backend) *)
  rob_entries : int;
  lsq_entries : int;
  fetch_width : int;
  retire_width : int;
  alu_ports : int;
  mem_ports : int;
  br_penalty : int;                (* checkpoint-restore redirect cost *)
  replay_penalty : int;            (* LSQ violation squash + replay cost *)
  mdp : mdp;
}

let default_config =
  { physical_stacked_regs = 96; alat_entries = 32; call_overhead = 2;
    heap_bytes = 24 * 1024 * 1024; fuel = 400_000_000; issue_width = 2;
    rob_entries = 64; lsq_entries = 24; fetch_width = 4; retire_width = 4;
    alu_ports = 4; mem_ports = 2; br_penalty = 8; replay_penalty = 10;
    mdp = Mdp_store_set }

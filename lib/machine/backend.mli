(** Shared machine contract: the core identity, the counter record, the
    run {!result} and the {!config} knobs.

    Both timing models — the in-order EPIC core and the out-of-order
    core — run under one functional walk of the same flat code
    ({!Mcode}, run by {!Machine}), so they agree on program output,
    [insns] and ALAT traffic by construction and differ only in the
    timing counters.  The out-of-order-only counters stay 0 on the
    in-order core, and [rse_stall_cycles] stays 0 on the out-of-order
    one. *)

exception Machine_error of string

(** Raise {!Machine_error} with a formatted message. *)
val error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** {1 Core identity} *)

type kind =
  | Inorder  (** the paper's EPIC model: scoreboard + ALAT *)
  | Ooo  (** modern control: ROB + LSQ + memory-dependence predictor *)

val all_kinds : kind list
val kind_name : kind -> string
val kind_of_string : string -> kind option

(** {1 Counters, result, config} *)

type counters = {
  mutable insns : int;
  mutable cycles : int;
  mutable data_cycles : int;  (** stall cycles waiting on loads *)
  mutable loads_plain : int;
  mutable loads_adv : int;
  mutable loads_spec : int;
  mutable checks : int;
  mutable check_misses : int;
  mutable stores : int;
  mutable branches : int;
  mutable rse_stall_cycles : int;
  mutable max_stacked_regs : int;
  mutable br_mispredicts : int;  (** OoO only; 0 on the in-order core *)
  mutable lsq_replays : int;  (** OoO memory-order violations replayed *)
  mutable mdp_poisons : int;  (** OoO injected predictor/LSQ flushes *)
}

val fresh_counters : unit -> counters

(** All loads that actually accessed memory. *)
val loads_retired : counters -> int

(** All retired load-class instructions including successful checks
    (Figure 11's denominator). *)
val loads_retired_with_checks : counters -> int

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
  issue_width : int;  (** in-order issue slots per cycle *)
  rob_entries : int;  (** OoO reorder-buffer window *)
  lsq_entries : int;  (** OoO store-queue window *)
  fetch_width : int;
  retire_width : int;
  alu_ports : int;
  mem_ports : int;
  br_penalty : int;  (** checkpoint-restore redirect cost *)
  replay_penalty : int;  (** LSQ violation squash + replay cost *)
  mdp : mdp;
}

val default_config : config

(** Deterministic traffic replay against a live compile service
    ([bench/main.exe --traffic]).

    A {!Spec_stress.Srng}-seeded stream of mixed requests — cold and
    warm compiles across workloads, modes and source versions, profile
    reports whose evidence drifts (fresh training inputs) or goes
    stale (reports recorded against an edited source), and stats
    probes — is replayed over a real unix socket against a
    {!Server} spawned on a background thread.  The replay keeps a
    mirror of every unit's accumulated store and hard-fails
    ({!Divergence}) if any served compile differs from a direct
    in-process {!Spec_driver.Pipeline.compile_and_optimize} with the
    same evidence and knobs — byte-identical [Pp] text and vm
    execution output — or if a repeated cache key is ever served cold
    again.  Per-request latency (p50/p99) and throughput go into the
    bench JSON's [service] section. *)

exception Divergence of string

type cell = {
  t_seed : int;
  t_requests : int;            (** requests replayed *)
  t_units : int;               (** workload units in the mix *)
  t_cold : int;                (** compiles served cold (client-visible) *)
  t_warm : int;                (** compiles served from the cache *)
  t_joined : int;              (** same-wakeup single-flight joins *)
  t_parked : int;              (** cross-wakeup single-flight parks *)
  t_reports : int;             (** profile reports merged *)
  t_recompiles : int;          (** drift-triggered background recompiles *)
  t_errors : int;              (** server error counter (must be 0) *)
  t_divergences : int;         (** served-vs-offline mismatches (always 0:
                                   a mismatch raises {!Divergence}) *)
  t_p50_ms : float;
  t_p99_ms : float;
  t_wall_s : float;            (** replay wall time (setup excluded) *)
  t_rps : float;               (** requests / wall *)
}

(** Replay [requests] (default 1200, or 250 with [~quick:true])
    requests over [~quick:true] 3 / else all 8 workload units.
    Deterministic in [seed] (default 1): the request sequence and every
    program/output are reproducible; only the latency fields vary run
    to run. *)
val run_traffic_replay :
  ?quick:bool -> ?seed:int -> ?requests:int -> unit -> cell

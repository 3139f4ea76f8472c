(** Deterministic misspeculation fault plans.

    A {!plan} describes how hard to attack data speculation; an
    {!injector} executes a plan against one engine run, drawing every
    random decision from a {!Srng} stream derived from the plan's seed
    and a scope label, so results are byte-identical for any [--jobs N].

    Fault sources (§DESIGN 3.3):
    - {b flushes}: the whole ALAT is emptied every [flush_period] time
      units, modeling context switches / interrupts;
    - {b chaos invalidation}: each time unit, one random live entry is
      dropped with probability [inv_ppm] ppm, modeling interference from
      other threads' stores and ALAT pressure;
    - {b capacity pressure}: [alat_entries] shrinks the ITL machine's
      ALAT (the interpreter's semantic ALAT is unbounded and unaffected);
    - {b adversarial profiles}: {!adversary} perturbs the speculation
      flags the compiler assigns (see {!Spec_spec.Flags.perturb}), so
      speculation crosses references that really do alias at runtime.

    Time units are cycles on the ITL machine and ALAT operations
    (arm/check/store-invalidate) on the interpreters.  Faults only ever
    {e remove} ALAT entries, never add or corrupt them, so a faulted run
    can at worst reload a value that is current in memory — observable
    outputs stay bit-identical to the unoptimized oracle. *)

type adversary =
  | Adv_none
  | Adv_invert
      (** invert the likeliness of every may-alias relation: everything
          the policy would respect as a likely alias is speculated past
          (flags cleared, strong kill verdicts downgraded to weak), so
          recovery fires wherever aliasing is real *)
  | Adv_drop of int  (** like [Adv_invert] for each relation with this ppm *)

type plan = {
  seed : int;
  flush_period : int;  (** full ALAT flush every k time units; 0 = off *)
  inv_ppm : int;  (** per-time-unit random-entry invalidation, ppm *)
  alat_entries : int option;  (** shrink the machine ALAT; None = default *)
  adversary : adversary;
}

(** All fault sources off (but still carrying [seed]). *)
val null : int -> plan

(** No fault source is active (adversary included). *)
val is_null : plan -> bool

(** Parse a [--faults] spec: comma-separated [flush=K], [inv=PPM],
    [alat=N], [adv=invert|drop:PPM|none].  Errors out with [Error msg]
    on unknown keys or malformed values, and on an [alat] size the
    2-way machine ALAT cannot hold: [N] must be 2 times a power of
    two. *)
val parse : seed:int -> string -> (plan, string) result

(** Render a plan back to the [--faults] syntax (inverse of {!parse}
    for non-null plans). *)
val to_string : plan -> string

(** {1 Injection} *)

type injector

(** [injector plan ~scope] — fresh injector whose stream is
    [Srng.of_path plan.seed (scope)].  The scope labels must uniquely
    identify the run (workload, variant, grid point, engine). *)
val injector : plan -> scope:string list -> injector

(** [injector_opt] returns [None] for plans with no runtime fault
    source (adversarial-only plans included), so the zero-fault point
    takes exactly the unfaulted code path. *)
val injector_opt : plan -> scope:string list -> injector option

val plan_of : injector -> plan

(** [advance inj ~upto ~flush ~invalidate] — process time units from the
    previous mark up to [upto] (monotone; earlier marks are no-ops).
    [flush] empties the ALAT; [invalidate] drops one entry chosen with
    the supplied stream. *)
val advance :
  injector -> upto:int -> flush:(unit -> unit) -> invalidate:(Srng.t -> unit)
  -> unit

(** Count of full flushes fired so far. *)
val flushes : injector -> int

(** Count of chaos single-entry invalidation events fired so far. *)
val invalidations : injector -> int

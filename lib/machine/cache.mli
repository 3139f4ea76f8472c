(** Two-level data-cache model with Itanium-flavoured latencies: integer
    loads hit L1 in 2 cycles, floating-point loads bypass L1 and hit L2
    in 9 cycles (both figures from the paper's §5.2). *)

type t

val create :
  ?l1_kb:int -> ?l2_kb:int -> ?lat_l1:int -> ?lat_l2:int -> ?lat_mem:int ->
  unit -> t

(** Latency in cycles of a load at the given address; updates the cache. *)
val load_latency : t -> fp:bool -> int -> int

(** A store allocates the line in both levels (fire-and-forget). *)
val store : t -> int -> unit

(** [((l1_hits, l1_misses), (l2_hits, l2_misses))] so far. *)
val counts : t -> (int * int) * (int * int)

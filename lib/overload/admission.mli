(** Token-bucket admission controller with per-class priority: control
    traffic is always admitted, bulk is shed first (it must leave the
    bucket's reserve untouched), interactive sits between. Deterministic
    from the supplied clock. *)

type klass = Control | Interactive | Bulk

type t

val create : rate_per_sec:int -> burst:int -> now:(unit -> int64) -> t
(** [rate_per_sec] tokens per simulated second, capped at [burst]; 25%
    of the burst is headroom bulk traffic may not consume. The bucket
    starts full. *)

val admit : t -> klass -> Pressure.outcome
(** Spend one token for this class, or [Backpressure Admission]. *)

val tokens : t -> int
(** Whole tokens currently available (after refill). *)

val shed_of : t -> klass -> int
val admitted_total : t -> int
val shed_total : t -> int

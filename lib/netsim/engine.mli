(** Deterministic discrete-event engine with a nanosecond virtual clock.

    Ties at equal timestamps run in scheduling order. *)

type t

val create : unit -> t

val now : t -> int64
(** Boxes the clock at most once per value it reads. *)

val now_ns : t -> int
(** [now] as a native int: what a per-frame caller reads. *)

val schedule_at : t -> time:int64 -> (unit -> unit) -> unit
(** Raises [Invalid_argument] when [time] is in the past. A scheduled
    event takes a reused slot: it allocates nothing once the agenda has
    grown to its high-water mark. *)

val schedule_at_ns : t -> time:int -> (unit -> unit) -> unit
(** [schedule_at] with a native-int time. *)

val schedule : t -> after:int64 -> (unit -> unit) -> unit

val pending : t -> int
(** Number of queued events. *)

val step : t -> bool
(** Run the earliest event; [false] when the agenda is empty. *)

val run : ?until:int64 -> t -> unit
(** Drain the agenda, or run events up to and including [until] and set
    the clock to [until]. *)

val advance : t -> by:int64 -> unit

val stop : t -> unit
(** Abort the current [run] after the in-flight event returns. *)

(** Host observability metering (the "Obs." axis of Figure 5): taps record
    host-visible boundary events; the score estimates leaked bits per
    event. Only the ordering across boundaries is meaningful. *)

type event = { time : int64; kind : string; size : int }

type t

val create : string -> t
val record : t -> time:int64 -> kind:string -> size:int -> unit
val count : t -> int
val events : t -> event list
val clear : t -> unit

val kinds : t -> int
(** Number of distinct operation kinds the host observed. *)

val entropy_bits : t -> float
(** Empirical entropy of (kind, size-bucket, gap-bucket) per event. *)

val score : t -> float

val pp_summary : Format.formatter -> t -> unit

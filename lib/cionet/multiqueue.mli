(** Multi-queue cionet: N independent safe-ring devices with fixed flow
    steering (no control plane, no steering renegotiation). Safety
    properties compose per queue; per-queue meters expose the parallel
    critical path. *)

type t

val create : name:string -> queues:int -> Config.t -> t

val queue : t -> int -> Driver.t
val queues : t -> Driver.t list

val queue_for : t -> flow_hash:int -> int
(** Fixed steering: mask for power-of-two queue counts, sign-safe modulo
    otherwise. Always a valid queue index, for any hash. *)

val transmit : t -> flow_hash:int -> bytes -> bool

val transmit_burst : t -> flow_hash:int -> bytes array -> int
(** Burst transmit on the flow's queue; see {!Driver.transmit_burst}. *)

val poll_burst : max:int -> t -> bytes list
(** Drain up to [max] frames, visiting each queue at most
    once round-robin from the cursor. *)

val total_cycles : t -> int
val critical_path_cycles : t -> int
(** Busiest queue: wall time with one core per queue. *)

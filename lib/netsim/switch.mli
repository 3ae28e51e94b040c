(** Multi-port learning switch for multi-party topologies: MAC learning,
    unknown/broadcast flooding, deterministic per-port delivery through
    the engine. *)

type t

val create : ?latency_ns:int64 -> ports:int -> Engine.t -> t
val port_count : t -> int

val attach : t -> port:int -> (bytes -> unit) -> unit
(** Set the egress callback for a port. *)

val ingress : t -> port:int -> bytes -> unit
(** Inject a frame arriving on [port]. Its buffer goes to the egress
    port; a flood gives each port its own copy. *)

val learned_port : t -> mac:int -> int option
val frames_in : t -> port:int -> int
val frames_out : t -> port:int -> int
val flooded : t -> int

val endpoint : t -> port:int -> (bytes -> unit) * (unit -> bytes option)
(** (transmit, poll) pair bound to a port, ready to back a
    {!Cio_tcpip.Netif.t}. *)

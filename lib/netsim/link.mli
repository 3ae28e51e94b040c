(** Duplex link with latency, bandwidth (FIFO serialization) and optional
    tamper/tap hooks per direction. *)

type endpoint = A | B

val endpoint_name : endpoint -> string

type delivery = { extra_delay_ns : int64; frame : bytes }

type tamper = bytes -> delivery list
(** Maps one in-flight frame to the frames actually delivered: [[]] drops,
    several entries duplicate or inject. Each delivered buffer goes to
    its receiver, so a hook that delivers one frame twice, or keeps it
    for a later delivery, must copy it. *)

type t

val create : latency_ns:int64 -> gbps:float -> Engine.t -> t
val attach : t -> endpoint -> (bytes -> unit) -> unit

val set_tamper : t -> src:endpoint -> tamper option -> unit
(** Install/remove the adversary on the [src]→peer direction. *)

val set_transit_tap : t -> (time:int64 -> src:endpoint -> bytes -> unit) option -> unit
(** Metadata tap fired for every frame entering the link. It only reads
    the frame during the call. *)

val frames_sent : t -> src:endpoint -> int
val bytes_sent : t -> src:endpoint -> int

val send : t -> src:endpoint -> bytes -> unit
(** Queue a frame; it arrives at the peer after serialization + latency
    (+ tampering). The sender gives the buffer away: the receiver it is
    delivered to owns it. Without a tamper hook this is one engine
    event and allocates nothing once the link's rings have grown. *)

(** Host-side virtio-net device model with §2.5-style misbehaviour knobs.

    Operates strictly as the [Host] actor: it can only touch shared pages
    and all accesses land in the region log. *)

type misbehavior =
  | Lie_used_len of int
  | Bogus_used_id of int
  | Redirect_desc_addr of int
  | Race_used_len of int
  | Corrupt_payload
  | Replay_completion
  | Desc_chain_loop
  | Jump_used_idx of int

type stats = { mutable guest_faults : int }

type t

val create : rx:Vring.t -> tx:Vring.t -> transmit:(bytes -> unit) -> t
val stats : t -> stats

val inject : t -> misbehavior -> unit
(** Queue a one-shot misbehaviour on a {!Cio_mem.Host_fault} queue,
    applied at the next matching point. *)

val deliver_rx : t -> bytes -> unit
(** Hand the device a frame arriving from the network. The device only
    reads it, when it copies it into a posted RX buffer. *)

val poll : t -> unit
(** Process TX submissions and complete RX buffers. *)

val pending_rx_count : t -> int

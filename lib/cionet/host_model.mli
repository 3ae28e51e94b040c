(** Host-side cionet device model (strictly the [Host] actor), with the
    same misbehaviour classes as the virtio device so E4 can aim identical
    attacks at the safe interface. *)

type misbehavior =
  | Lie_len of int
  | Bad_index of int
  | Garbage_state of int
  | Race_header of int
  | Corrupt_payload
  | Replay_slot
  | Stall of int  (** stop servicing the device (both directions) for [n] polls *)
  | Silent_drop of int  (** discard the next [n] delivered RX frames without ring activity *)
  | Ring_freeze of int  (** keep draining TX but produce nothing into RX for [n] polls *)

type stats = {
  mutable faults : int;
      (** host accesses refused by memory protection (pages the guest
          has revoked), absorbed: a poll that faults raises nothing *)
  mutable rx_dropped : int;  (** frames discarded by [Silent_drop] *)
}

type t

val create : driver:Driver.t -> transmit:(bytes -> unit) -> t
(** The host serves [driver]'s current rings: after a {!Driver.hot_swap}
    it drains and fills the new instance with no call from anyone, as a
    hypervisor serves the device the guest has just mapped. [transmit]
    receives each frame drained from the guest's TX ring and owns it:
    the buffer comes from the host's pool and is not touched by the host
    again. *)

val stats : t -> stats

val pp_misbehavior : Format.formatter -> misbehavior -> unit
(** With its parameter, as fault-campaign reports print it. *)

val inject : t -> misbehavior -> unit
(** Header/payload sabotage queues one-shot on a {!Cio_mem.Host_fault}
    queue, applied in injection order; [Stall]/[Silent_drop]/
    [Ring_freeze] extend the corresponding modal fault duration. *)

val set_service_quota : t -> int option -> unit
(** Cap frames serviced per {!poll}, per direction ([None] = unbounded,
    the default). A slow-but-honest host: the saturation knob for the
    overload experiments. *)

val deliver_rx : t -> bytes -> unit
(** Queue a frame for the guest's RX ring. The host takes the buffer:
    it is produced as it is and then recycled into the host's pool, so
    the caller must not touch it afterwards. *)

val poll : t -> unit
(** Drain the guest's TX ring (forwarding frames) and fill the RX ring
    from pending frames: in whole batches for an honest host over a fully
    shared region, one frame at a time while a per-frame misbehaviour is
    queued or a page is revoked. *)

val pending_rx_count : t -> int

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
  mutable tx_forwarded : int;
  mutable rx_injected : int;
  mutable faults : int;
  mutable rx_dropped : int;
}

type t

val create : driver:Driver.t -> transmit:(bytes -> unit) -> t

val reattach : t -> driver:Driver.t -> unit
(** Re-attach to a driver after {!Driver.hot_swap}. *)

val stats : t -> stats

val inject : t -> misbehavior -> unit
(** Header/payload sabotage queues one-shot; [Stall]/[Silent_drop]/
    [Ring_freeze] extend the corresponding modal fault duration. *)

val set_service_quota : t -> int option -> unit
(** Cap frames serviced per {!poll}, per direction ([None] = unbounded,
    the default). A slow-but-honest host: the saturation knob for the
    overload experiments. *)

val deliver_rx : t -> bytes -> unit

val poll : t -> unit
(** Drain the guest's TX ring (forwarding frames) and fill the RX ring
    from pending frames: in whole batches for an honest host over a fully
    shared region, one frame at a time while a per-frame misbehaviour is
    queued or a page is revoked. *)

val pending_rx_count : t -> int

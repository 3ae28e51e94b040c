(** Guest-side cionet driver: builds the shared region (config page + two
    safe rings) and exposes the polling netif. *)

open Cio_util
open Cio_mem

type t

val create :
  ?model:Cost.model ->
  ?meter:Cost.meter ->
  ?host_meter:Cost.meter ->
  name:string ->
  Config.t ->
  t
(** The TX ring always copies (the host consumes it); the RX ring takes
    the configuration's [rx_strategy]. [Revoke] with [Pool] or
    [Indirect] positioning raises [Invalid_argument] here. *)

val region : t -> Region.t
val tx_ring : t -> Ring.t
val rx_ring : t -> Ring.t
val host_meter : t -> Cost.meter
val guest_meter : t -> Cost.meter
val tx_frames : t -> int
val rx_frames : t -> int

val generation : t -> int
(** Device generation; bumped by {!hot_swap}. *)

val hot_swap : t -> unit
(** Replace the device instance wholesale (live migration by hot swap,
    §3.2): the zero-negotiation interface has no state to transfer. The
    old region is fully revoked from the host; in-flight frames are lost
    like a cable pull and the upper layers recover. The host serves the
    new instance from its next poll on (see {!Host_model.create}). *)

val transmit : t -> bytes -> bool
(** [transmit t f] is [transmit_burst t [| f |] = 1]. *)

val recv : t -> bytes
(** Take one received frame off the RX ring (one
    {!Ring.try_consume_burst_into} [~max:1], by the copy or revocation
    strategy the configuration fixed at {!create}) and hand it to the
    caller, or return [Bytes.empty] when none came out. No frame is ever
    that buffer, so test the result with [==]: a zero-length frame a
    codec built elsewhere is not [Bytes.empty]. Allocates nothing but the
    buffer it takes from the pool. *)

val poll : t -> bytes option
(** {!recv}, with [None] for [Bytes.empty]: the same charges, counters
    and trace events. *)

val transmit_burst : t -> bytes array -> int
(** Place up to a whole batch in one ring crossing with at most one
    doorbell (coalesced under [use_notifications]); returns how many
    frames went in. A short count means the TX ring filled; it is also
    counted as [overload.bp.ring_full]. Short frames are padded via pool
    buffers when [pad_frames] is set — no per-frame allocation in steady
    state. *)

val poll_burst : max:int -> t -> bytes list
(** Drain up to [max] RX frames in one crossing, FIFO: one
    {!Ring.try_consume_burst_into}. In [Revoke] mode the contiguous run
    is revoked under a single shootdown and released before returning;
    every buffer is an owned snapshot. *)

val recycle : t -> bytes -> unit
(** Return a frame buffer handed out by {!recv}/{!poll}/{!poll_burst} to the
    driver's pool once the caller is done with it. *)

val pool : t -> Cio_mem.Bufpool.t
(** The driver's RX/staging buffer pool (stable across hot swaps). *)

val to_netif : t -> Cio_tcpip.Netif.t

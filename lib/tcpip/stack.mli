(** IP stack facade: Ethernet/IPv4 demux over a polling {!Netif.t} into
    a {!Tcp.t} instance. Neighbour resolution is a static table
    (zero-negotiation principle). *)

open Cio_util
open Cio_frame

type counters = {
  mutable frames_in : int;
  mutable frames_out : int;
  mutable dropped : int;
  mutable last_drop_reason : string;
}

type t

val create :
  ?model:Cost.model ->
  ?meter:Cost.meter ->
  ?tx_burst:(bytes array -> int) ->
  ?recycle:(bytes -> unit) ->
  ?recv:(unit -> bytes) ->
  ?tx_queue_limit:int ->
  ?retry_budget:Cio_overload.Retry_budget.t ->
  netif:Netif.t ->
  ip:Addr.ipv4 ->
  neighbors:(Addr.ipv4 * Addr.mac) list ->
  now:(unit -> int64) ->
  rng:Rng.t ->
  unit ->
  t
(** Every TX frame buffer comes from a pool the stack owns.
    [tx_burst] enables TX coalescing: outgoing frames queue and flush as
    bursts at the end of each {!poll} (the function returns how many of
    the batch were accepted; the tail is retried next flush). It borrows
    the frames for the call only: the stack reuses each accepted frame's
    buffer afterwards. Without it, [netif.transmit] keeps every frame it
    is given. [recv] is the stack's receive: it returns the next frame,
    or [Bytes.empty] (compared with [==]) when none is waiting, and
    boxes nothing per frame; without it the stack receives through
    [netif.poll]. Either way the stack owns each frame it is given; once
    {!handle_frame} is done with it (nothing the stack keeps points into
    it), the buffer goes to [recycle], the driver's pool, when given and
    into the stack's own TX pool otherwise. Omitting [tx_burst] and
    [recycle] yields the classic frame-at-a-time stack.
    [tx_queue_limit] bounds the coalescing queue: a full queue sheds new
    frames (counted under [dropped] and [overload.bp.queue_full])
    instead of growing without limit while the ring is full.
    [retry_budget] makes TCP retransmits (RTO and fast) spend from the
    shared overload-plane budget. *)

val tcp : t -> Tcp.t
val counters : t -> counters
val meter : t -> Cost.meter

val tx_backlog : t -> int
(** Frames waiting in the TX coalescing queue. *)

val handle_frame : t -> bytes -> unit
(** Inject one raw Ethernet frame (normally called via {!poll}). The
    frame is only read during the call. *)

val poll : t -> unit
(** Drain up to 64 received frames, run TCP timers, then flush
    coalesced TX (when [tx_burst] was given). *)

(** The safe ring: §3.2's host↔TEE data path, safe by construction
    (stateless slots, single-fetch headers, mask-confined indices and
    offsets, clamped lengths, polling, zero negotiation).

    One ring carries one direction; the producer actor and the
    consumer's strategy are fixed at creation. *)

open Cio_util
open Cio_mem

type layout = {
  total : int;
  hdr_off : int;
  desc_off : int;
  desc_count : int;
  data_off : int;
  data_size : int;
  unit_size : int;
  units : int;
}

val layout : page_size:int -> slots:int -> Config.positioning -> layout
(** Compute the shared-memory footprint; raises [Invalid_argument] on
    non-power-of-two geometry. *)

type counters = {
  mutable produced : int;
  mutable consumed : int;
  mutable full_misses : int;
  mutable empty_polls : int;
  mutable len_clamped : int;
  mutable index_masked : int;
  mutable state_skipped : int;
}

type t

val create :
  region:Region.t ->
  base:int ->
  slots:int ->
  positioning:Config.positioning ->
  producer:Region.actor ->
  strategy:Config.rx_strategy ->
  host_meter:Cost.meter ->
  t
(** [base] must be page-aligned. Guest-side work is charged to the
    region's meter, host-side work to [host_meter]. [strategy] is how
    the consumer takes every message: one early copy ([Copy_in]) or page
    revocation ([Revoke]), which needs a guest consumer ([producer] is
    [Host]) and [Inline] positioning; any other [Revoke] ring raises
    [Invalid_argument]. *)

val counters : t -> counters
val slots : t -> int
val region : t -> Region.t

val header_offset : t -> int -> int
(** Absolute region offset of a slot's header — exposed for the attack
    harness, which pokes shared memory as the host. *)

val capacity : t -> int
(** Maximum payload bytes per message. *)

val data_arena : t -> int * int
(** (offset, size) of the payload arena within the region. *)

val try_produce_burst : t -> bytes array -> len:int -> int
(** The producer side, the ring's only one: place up to [frames.(0)] ..
    [frames.(len - 1)] in one crossing, stopping at the first full slot
    (or exhausted payload pool); returns how many went in. Slots after
    the first pay the amortized [ring_burst_op] cost for header/word
    work, so [~len:1] charges and counts as a single-slot produce. *)

val try_consume_burst_into : pool:Bufpool.t -> t -> bytes array -> max:int -> int
(** The consumer side, the ring's only one: drain up to [max] messages
    ([max] at most the array's length) in one crossing into the first
    slots of the array, in FIFO order, and return how many it wrote. Each
    frame is a private snapshot in a buffer taken from [pool], owned by
    the caller; nothing else is allocated.

    [Copy_in]: one early copy per message. Malformed slots inside the
    batch are skipped-and-counted without ending the batch; an EMPTY slot
    ends it. Header/word costs amortize after the first access, so
    [~max:1] charges and counts exactly like a single-slot consume.

    [Revoke]: one unshare/share pair (one TLB shootdown each way) covers
    a contiguous run of valid FULL slots, read while the host is locked
    out; every slot of the run is re-shared and returned EMPTY before the
    call returns. The run stops at a ring wrap and before the first
    non-FULL or zero-length slot, which the next call skips at the head
    of its run (returning 0). *)

(** The safe ring: §3.2's host↔TEE data path, safe by construction
    (stateless slots, single-fetch headers, mask-confined indices and
    offsets, clamped lengths, polling, zero negotiation).

    One ring carries one direction; the producer actor is fixed at
    creation. *)

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
  host_meter:Cost.meter ->
  t
(** [base] must be page-aligned. Guest-side work is charged to the
    region's meter, host-side work to [host_meter]. *)

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

val try_produce : t -> bytes -> bool
(** Producer side: place one message; [false] when the ring (or the
    payload pool) is full. *)

val try_produce_burst : t -> bytes array -> len:int -> int
(** Place up to [frames.(0)] .. [frames.(len - 1)] in one crossing,
    stopping at the first full slot; returns how many went in. Slots
    after the first pay the amortized [ring_burst_op] cost for
    header/word work. A burst of one is exactly {!try_produce} (same
    charges, same counters). *)

val try_consume : pool:Bufpool.t -> t -> bytes option
(** Consumer side, copy strategy: one early copy into private memory, a
    buffer taken from [pool]. Malformed slots are skipped-and-counted
    without ending the call. A burst of one: exactly
    {!try_consume_burst_into} [~max:1] (same result, charges and
    counters). *)

val try_consume_burst_into : pool:Bufpool.t -> t -> bytes array -> max:int -> int
(** Drain up to [max] messages ([max] at most the array's length) in one
    crossing into the first slots of the array, in FIFO order, and return
    how many it wrote. Malformed slots inside the batch are
    skipped-and-counted without ending the batch; an EMPTY slot ends it.
    Header/word costs amortize after the first access. Allocates nothing
    but the buffers it takes from [pool]. *)

type zero_copy_burst = { frames : bytes list; release : unit -> unit }

val try_consume_revoke_burst : pool:Bufpool.t -> max:int -> t -> zero_copy_burst option
(** Consumer side, revocation strategy (guest consumer, inline
    positioning): one unshare/share pair (one TLB shootdown each way)
    covers a contiguous run of up to [max] valid FULL slots,
    read while the host is locked out. The run stops at a ring wrap or at
    the first non-FULL/malformed slot, which is left in place for the
    next call. [release] re-shares the whole span and returns every slot;
    the [frames] are private snapshots in buffers taken from [pool],
    owned by the caller. [~max:1] is
    the single-slot revocation. *)

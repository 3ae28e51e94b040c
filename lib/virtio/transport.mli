(** Shared-memory layout for a virtio-net device: two rings and two
    per-slot buffer arenas in one host-shared region. *)

open Cio_util
open Cio_mem

type t

val create :
  ?model:Cost.model ->
  ?meter:Cost.meter ->
  name:string ->
  unit ->
  t
(** 64 slots per ring, 2048-byte buffers. *)

val region : t -> Region.t
val rx : t -> Vring.t
val tx : t -> Vring.t
val queue_size : t -> int
val buf_size : t -> int

val rx_buf_offset : t -> int -> int
val tx_buf_offset : t -> int -> int

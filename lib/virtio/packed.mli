(** Packed virtqueue (VirtIO 1.1): the standard's second transport format,
    with its own hazard set (shared flag words, wrap-counter confusion,
    in-place completion rewrites) and correspondingly different hardening
    inventory — the §2.5 "each format has unique hardening needs"
    observation, made executable. *)

open Cio_mem

val flag_avail : int
val flag_write : int

type element = { addr : int; len : int; id : int; flags : int }
type queue

val make_queue : region:Region.t -> base:int -> size:int -> queue
val read_elem : queue -> Region.actor -> int -> element
val write_elem : queue -> Region.actor -> int -> element -> unit

val is_avail : int -> wrap:bool -> bool
val is_used : int -> wrap:bool -> bool
val avail_flags : wrap:bool -> write:bool -> int
val used_flags : wrap:bool -> int

type transport

val create_transport : name:string -> transport

val rx_buf_offset : transport -> int -> int
val transport_region : transport -> Region.t
val transport_buf_size : transport -> int

type misbehavior =
  | P_lie_len of int
  | P_bogus_id of int
  | P_wrap_replay
  | P_premature_used

type device

val create_device : transport:transport -> transmit:(bytes -> unit) -> device
val device_inject : device -> misbehavior -> unit
val device_deliver_rx : device -> bytes -> unit
val device_poll : device -> unit

type driver

val create_driver : hardened:bool -> transport -> driver
val driver_transmit : driver -> bytes -> bool
val driver_poll : driver -> bytes option

val driver_rejects : driver -> int * int * int
(** (wrap-confusions rejected, bad ids rejected, lengths clamped). *)

val hardened_check_inventory : (string * bool) list
(** Hardening checks for the packed format; [true] marks format-unique
    checks. *)

val split_hardened_check_inventory : (string * bool) list

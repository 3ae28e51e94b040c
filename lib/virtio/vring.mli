(** Split virtqueue layout in simulated shared memory (descriptor table,
    avail ring, used ring), accessible from either actor. *)

open Cio_mem

val flag_next : int
val flag_write : int

type desc = { addr : int; len : int; flags : int; next : int }

val desc_has_next : desc -> bool
val desc_is_write : desc -> bool

type t

val bytes_needed : int -> int
(** Shared-memory footprint of a queue of the given size. *)

val create : region:Region.t -> base:int -> size:int -> t
val region : t -> Region.t

val write_desc : t -> Region.actor -> int -> desc -> unit
val read_desc : t -> Region.actor -> int -> desc

val avail_idx : t -> Region.actor -> int
val set_avail_idx : t -> Region.actor -> int -> unit
val avail_entry : t -> Region.actor -> int -> int
val set_avail_entry : t -> Region.actor -> int -> int -> unit

val used_idx : t -> Region.actor -> int
val set_used_idx : t -> Region.actor -> int -> unit
val used_entry : t -> Region.actor -> int -> int * int
val set_used_entry : t -> Region.actor -> int -> id:int -> len:int -> unit

(** Field offsets within the shared region (for targeted attack hooks). *)

val used_len_field_off : t -> int -> int
val desc_addr_field_off : t -> int -> int

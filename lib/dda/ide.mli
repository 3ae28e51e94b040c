(** IDE-protected PCIe link: AEAD TLPs under the SPDM session key, crypto
    in hardware (no TEE CPU cost beyond DMA). *)

open Cio_util

type t

val create : ?meter:Cost.meter -> key:bytes -> unit -> t

val seal_tlp : t -> bytes -> bytes
val open_tlp : t -> bytes -> bytes option
(** [None] on link tampering (host-in-the-middle); the sequence number
    only advances on success. *)

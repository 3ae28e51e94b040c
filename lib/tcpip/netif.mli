(** Polling network interface provided by a driver to the stack. *)

open Cio_frame

type t = {
  mac : Addr.mac;
  mtu : int;
  transmit : bytes -> unit;  (** keeps the frame it is given *)
  poll : unit -> bytes option;  (** the caller owns the frame returned *)
}

val loopback_pair : mac_a:Addr.mac -> mac_b:Addr.mac -> mtu:int -> t * t
(** Two interfaces cross-wired through in-memory queues (for tests).
    [transmit] queues a copy of the frame. *)

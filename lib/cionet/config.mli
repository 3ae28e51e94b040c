(** Boot-time cionet device configuration (zero-negotiation: all fields
    fixed at creation, no control plane). *)

open Cio_frame

type positioning =
  | Inline of { data_capacity : int }
  | Pool of { pool_slots : int; pool_slot_size : int }
  | Indirect of { desc_count : int; pool_slots : int; pool_slot_size : int }

type rx_strategy = Copy_in | Revoke

type t = {
  mac : Addr.mac;
  mtu : int;
  ring_slots : int;
  positioning : positioning;
  rx_strategy : rx_strategy;
  use_notifications : bool;
  pad_frames : bool;
}

val default : t

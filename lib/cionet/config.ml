(* Boot-time device configuration — the §3.2 "zero (re-)negotiation"
   principle made concrete.

   Everything a paravirtual standard would negotiate (MAC, MTU, feature
   bits, checksum ownership, queue geometry, data-positioning format) is
   fixed here when the device is instantiated and never changes. There is
   no feature-negotiation state machine, no control virtqueue, no runtime
   reconfiguration: the control plane is this immutable page. Live
   migration is handled by hot-swapping the whole device, not by mutating
   it. *)

open Cio_frame

type positioning =
  | Inline of { data_capacity : int }
      (** payload lives in the ring slot itself (page-aligned slots) *)
  | Pool of { pool_slots : int; pool_slot_size : int }
      (** payload in a separate shared pool, mask-confined index in the slot *)
  | Indirect of { desc_count : int; pool_slots : int; pool_slot_size : int }
      (** slot -> masked descriptor -> masked buffer offset *)

type rx_strategy =
  | Copy_in   (** copy payload to private memory, then release the slot *)
  | Revoke    (** unshare the payload pages and use the data in place *)

type t = {
  mac : Addr.mac;
  mtu : int;
  ring_slots : int;          (* per direction, power of two *)
  positioning : positioning;
  rx_strategy : rx_strategy;
  use_notifications : bool;  (* false = pure polling (the default) *)
  pad_frames : bool;
      (* pad every TX frame to the MTU before it reaches shared memory:
         hides payload sizes from the host at bandwidth cost (an
         observability ablation; IPv4 receivers strip link padding) *)
}

let default =
  {
    mac = Addr.mac_of_octets 0x02 0xC1 0x0F 0x00 0x00 0x01;
    mtu = 1500;
    ring_slots = 64;
    positioning = Inline { data_capacity = 4096 };
    rx_strategy = Copy_in;
    use_notifications = false;
    pad_frames = false;
  }

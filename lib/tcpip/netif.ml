(* Driver-facing network interface.

   The stack is strictly polling-driven — the paper's "no notifications"
   principle — so a netif exposes [poll] rather than an RX callback. Any
   driver (virtio baseline, cionet, loopback) plugs in by providing this
   record. *)

open Cio_frame

type t = {
  mac : Addr.mac;
  mtu : int;
  transmit : bytes -> unit;     (* raw Ethernet frame out; the netif keeps it *)
  poll : unit -> bytes option;  (* next received frame, if any; the caller owns it *)
}

let loopback_pair ~mac_a ~mac_b ~mtu =
  (* Two interfaces wired back-to-back through in-memory queues, for
     tests; [transmit] queues a copy, so a test may send a frame twice. *)
  let qa = Queue.create () and qb = Queue.create () in
  let mk mac inbox outbox =
    {
      mac;
      mtu;
      transmit = (fun frame -> Queue.add (Bytes.copy frame) outbox);
      poll = (fun () -> if Queue.is_empty inbox then None else Some (Queue.take inbox));
    }
  in
  (mk mac_a qa qb, mk mac_b qb qa)

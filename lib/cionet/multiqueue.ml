(* Multi-queue cionet: N independent device instances, one per core — the
   standard answer to the paper's §2.2 performance ideal (saturating
   tens-of-Gbit links), applied to the safe interface.

   Because each queue is a complete, independent cionet device (own
   region, own rings, own meter), multi-queue composes with every safety
   property for free: there is no shared control state between queues to
   harden, no steering negotiation (the flow->queue map is fixed at
   creation, like everything else), and per-queue hot swap keeps working.
   Contrast virtio multiqueue, which adds a control-virtqueue command set
   (and its own CVE surface) to renegotiate steering at runtime.

   TX steering: flows are pinned by a caller-supplied hash so per-flow
   ordering is preserved; RX arrives on whatever queue the host used and
   is drained round-robin. The per-queue meters let experiments compute
   the parallel critical path (max over queues) versus total work. *)

open Cio_util

type t = {
  queues : Driver.t array;
  mutable rx_next : int;  (* round-robin drain cursor *)
}

let create ?(model = Cost.default) ?host_meter ~name ~queues (config : Config.t) =
  if queues < 1 then invalid_arg "Multiqueue.create: need at least one queue";
  {
    queues =
      Array.init queues (fun i ->
          Driver.create ~model ?host_meter ~name:(Printf.sprintf "%s-q%d" name i) config);
    rx_next = 0;
  }

let queue t i = t.queues.(i)
let queues t = Array.to_list t.queues

(* Fixed flow steering: same hash, same queue, always. Power-of-two
   counts use the mask; other counts fall back to a sign-safe modulo (a
   bare [mod] goes negative for negative hashes). *)
let queue_for t ~flow_hash =
  let n = Array.length t.queues in
  if n land (n - 1) = 0 then flow_hash land (n - 1)
  else ((flow_hash mod n) + n) mod n

let transmit t ~flow_hash frame =
  Driver.transmit t.queues.(queue_for t ~flow_hash) frame

let transmit_burst t ~flow_hash frames =
  Driver.transmit_burst t.queues.(queue_for t ~flow_hash) frames

(* Burst drain: visit each queue once starting from the round-robin
   cursor, taking up to the remaining budget from each, so one busy queue
   cannot starve the others and a single poll can move a whole batch
   (the old one-frame-per-poll drain was the multi-queue bottleneck). *)
let poll_burst ?(max = 64) t =
  let n = Array.length t.queues in
  let left = ref max in
  let acc = ref [] in
  for _ = 0 to n - 1 do
    if !left > 0 then begin
      let q = t.rx_next in
      t.rx_next <- (t.rx_next + 1) mod n;
      let frames = Driver.poll_burst ~max:!left t.queues.(q) in
      left := !left - List.length frames;
      acc := List.rev_append frames !acc
    end
  done;
  List.rev !acc

let total_cycles t =
  Array.fold_left (fun acc q -> acc + Cost.total (Driver.guest_meter q)) 0 t.queues

(* The parallel critical path: with one core per queue, wall time is the
   busiest queue, not the sum. *)
let critical_path_cycles t =
  Array.fold_left (fun acc q -> max acc (Cost.total (Driver.guest_meter q))) 0 t.queues

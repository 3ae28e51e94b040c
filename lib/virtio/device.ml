(* Host-side virtio-net device model.

   Runs entirely as the [Host] actor over the shared region: it can only
   touch shared pages, and everything it does is visible in the region
   log. A benign device forwards frames faithfully; the misbehaviour knobs
   turn it into the §2.5 interface attacker (lying used entries, raced
   descriptor fields, replayed completions, descriptor-chain loops). *)

open Cio_mem

let src = Logs.Src.create "cio.virtio.device" ~doc:"virtio device model"

module Log = (val Logs.src_log src : Logs.LOG)

type misbehavior =
  | Lie_used_len of int       (* complete next RX with this length *)
  | Bogus_used_id of int      (* complete next buffer with this id *)
  | Redirect_desc_addr of int (* after DMA, repoint the descriptor at this offset *)
  | Race_used_len of int      (* rewrite used.len between the guest's two fetches *)
  | Corrupt_payload           (* flip bytes in the completed buffer *)
  | Replay_completion         (* publish the same used entry twice *)
  | Desc_chain_loop           (* rewrite a descriptor chain into a cycle *)
  | Jump_used_idx of int      (* advance used.idx without writing entries:
                                 the driver reaps stale/zero entries *)

type stats = {
  mutable guest_faults : int;  (* guest-posted descriptors the device refused *)
}

type t = {
  rx : Vring.t;
  tx : Vring.t;
  transmit : bytes -> unit;
  mutable rx_last_avail : int;
  mutable tx_last_avail : int;
  mutable rx_used_next : int;
  mutable tx_used_next : int;
  pending_rx : bytes Queue.t;
  faults : misbehavior Host_fault.queue;
  stats : stats;
  max_chain : int;
}

let create ~rx ~tx ~transmit =
  {
    rx;
    tx;
    transmit;
    rx_last_avail = 0;
    tx_last_avail = 0;
    rx_used_next = 0;
    tx_used_next = 0;
    pending_rx = Queue.create ();
    faults = Host_fault.queue ();
    stats = { guest_faults = 0 };
    max_chain = 16;
  }

let stats t = t.stats

let inject t m = Host_fault.push t.faults m
let take t applies = Host_fault.take t.faults applies

let deliver_rx t frame = Queue.add frame t.pending_rx

(* Walk a descriptor chain as the device, defensively: the device also
   must not trust the guest (mutual distrust), so chains are bounded and
   faults are swallowed as guest errors. *)
let read_chain t vring head =
  let region = Vring.region vring in
  let buf = Buffer.create 2048 in
  let rec go idx hops =
    if hops > t.max_chain then None
    else begin
      let d = Vring.read_desc vring Host idx in
      match Region.host_read region ~off:d.Vring.addr ~len:d.Vring.len with
      | exception Region.Fault _ -> None
      | bytes ->
          Buffer.add_bytes buf bytes;
          if Vring.desc_has_next d then go d.Vring.next (hops + 1) else Some (Buffer.to_bytes buf)
    end
  in
  go head 0

let complete t vring ~used_next ~id ~len =
  let id = Option.value ~default:id (take t (function Bogus_used_id b -> Some b | _ -> None)) in
  let len = Option.value ~default:len (take t (function Lie_used_len l -> Some l | _ -> None)) in
  Vring.set_used_entry vring Host used_next ~id ~len;
  Vring.set_used_idx vring Host (used_next + 1);
  match take t (function Replay_completion -> Some () | _ -> None) with
  | Some () ->
      (* Publish the same buffer a second time: a classic completion-path
         temporal violation. *)
      Vring.set_used_entry vring Host (used_next + 1) ~id ~len;
      Vring.set_used_idx vring Host (used_next + 2)
  | None -> ()

let arm_race t vring ~used_slot =
  (* Rewrite the used.len field the moment the guest first fetches it:
     the host core racing the driver between its two reads. *)
  match take t (function Race_used_len l -> Some l | _ -> None) with
  | Some newlen ->
      let target = Vring.used_len_field_off vring used_slot in
      Host_fault.race_word (Vring.region vring) ~watch:target ~off:target newlen
  | None -> ()

let process_tx t =
  let vring = t.tx in
  let avail = Vring.avail_idx vring Host in
  while t.tx_last_avail <> avail land 0xFFFF do
    let id = Vring.avail_entry vring Host t.tx_last_avail in
    (match read_chain t vring id with
    | Some frame ->
        let frame =
          match take t (function Corrupt_payload -> Some () | _ -> None) with
          | Some () ->
              let f = Bytes.copy frame in
              if Bytes.length f > 14 then
                Bytes.set f 14 (Char.chr (Char.code (Bytes.get f 14) lxor 0xFF));
              f
          | None -> frame
        in
        t.transmit frame
    | None -> t.stats.guest_faults <- t.stats.guest_faults + 1);
    complete t vring ~used_next:t.tx_used_next ~id ~len:0;
    t.tx_used_next <- (t.tx_used_next + 1) land 0xFFFF;
    t.tx_last_avail <- (t.tx_last_avail + 1) land 0xFFFF
  done

let process_rx t =
  let vring = t.rx in
  let region = Vring.region vring in
  let avail = Vring.avail_idx vring Host in
  let continue = ref true in
  while !continue && (not (Queue.is_empty t.pending_rx)) && t.rx_last_avail <> avail land 0xFFFF do
    let frame = Queue.take t.pending_rx in
    let id = Vring.avail_entry vring Host t.rx_last_avail in
    let d = Vring.read_desc vring Host id in
    if not (Vring.desc_is_write d) then begin
      (* Guest posted a read-only buffer on the RX queue: refuse it. *)
      t.stats.guest_faults <- t.stats.guest_faults + 1;
      t.rx_last_avail <- (t.rx_last_avail + 1) land 0xFFFF
    end
    else begin
      let len = min (Bytes.length frame) d.Vring.len in
      let payload =
        match take t (function Corrupt_payload -> Some () | _ -> None) with
        | Some () ->
            let f = Bytes.sub frame 0 len in
            if Bytes.length f > 0 then
              Bytes.set f 0 (Char.chr (Char.code (Bytes.get f 0) lxor 0xFF));
            f
        | None -> Bytes.sub frame 0 len
      in
      (match Region.host_write region ~off:d.Vring.addr payload with
      | () ->
          (match take t (function Desc_chain_loop -> Some () | _ -> None) with
          | Some () ->
              (* Point the descriptor's NEXT at itself: a driver that
                 walks chains from shared memory spins forever. *)
              let d = Vring.read_desc vring Host id in
              Vring.write_desc vring Host id
                { d with Vring.flags = d.Vring.flags lor Vring.flag_next; next = id }
          | None -> ());
          (match take t (function Redirect_desc_addr a -> Some a | _ -> None) with
          | Some target ->
              (* After honest DMA, repoint the shared descriptor: a driver
                 that re-reads it copies from attacker-chosen memory. *)
              Region.write_u64 region Host ~off:(Vring.desc_addr_field_off vring id)
                (Int64.of_int target)
          | None -> ());
          arm_race t vring ~used_slot:t.rx_used_next;
          complete t vring ~used_next:t.rx_used_next ~id ~len
      | exception Region.Fault _ -> t.stats.guest_faults <- t.stats.guest_faults + 1);
      t.rx_used_next <- (t.rx_used_next + 1) land 0xFFFF;
      t.rx_last_avail <- (t.rx_last_avail + 1) land 0xFFFF
    end;
    if Queue.is_empty t.pending_rx then continue := false
  done

let poll t =
  (match take t (function Jump_used_idx n -> Some n | _ -> None) with
  | Some n ->
      (* Pure index lie on the RX used ring: no entries are written. *)
      Vring.set_used_idx t.rx Host (t.rx_used_next + n);
      t.rx_used_next <- (t.rx_used_next + n) land 0xFFFF
  | None -> ());
  process_tx t;
  process_rx t

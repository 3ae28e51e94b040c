(* Packed virtqueue (VirtIO 1.1 §2.8) — the second transport format the
   standard supports, included because §2.5 observes that each format has
   *unique* hardening needs.

   One descriptor ring per queue; each 16-byte element carries
   { addr:u64, len:u32, id:u16, flags:u16 } and is written by BOTH sides:
   the driver publishes a buffer by setting the AVAIL bit to its wrap
   counter (and USED to the inverse); the device consumes it and republishes
   the element with its own id/len and both bits set to the device's wrap
   counter. Compared to the split format this halves the shared-memory
   footprint and touches one cacheline per descriptor — and creates
   hazards the split format does not have:

   - driver- and device-owned state share a word (flags), so ownership is
     a *convention*, not a layout property;
   - progress is governed by wrap counters, so a device that replays a
     stale element from the previous lap forges "fresh" availability
     (wrap confusion);
   - the element is rewritten in place on completion, so the posted
     addr/len are gone unless the driver shadowed them — re-reading the
     element is inherently reading device output.

   The unhardened driver below trusts in-place state exactly the way the
   split unhardened driver does; the hardened driver needs a *different*
   check inventory (wrap-counter tracking, per-lap id liveness, shadowed
   addr/len) — which is the paper's point. *)

open Cio_util
open Cio_mem

let flag_avail = 1 lsl 7
let flag_used = 1 lsl 15
let flag_write = 1 lsl 1

type element = { addr : int; len : int; id : int; flags : int }

type queue = {
  region : Region.t;
  base : int;
  size : int;  (* power of two *)
}

let elem_bytes = 16

let queue_footprint size = size * elem_bytes

let make_queue ~region ~base ~size =
  if not (Bitops.is_power_of_two size) then
    invalid_arg "Packed.make_queue: size must be a power of two";
  { region; base; size }

let elem_off q i = q.base + (elem_bytes * i)

let read_elem q actor i =
  let off = elem_off q i in
  {
    addr = Int64.to_int (Region.read_u64 q.region actor ~off);
    len = Region.read_u32 q.region actor ~off:(off + 8);
    id = Region.read_u16 q.region actor ~off:(off + 12);
    flags = Region.read_u16 q.region actor ~off:(off + 14);
  }

let write_elem q actor i (e : element) =
  let off = elem_off q i in
  Region.write_u64 q.region actor ~off (Int64.of_int e.addr);
  Region.write_u32 q.region actor ~off:(off + 8) e.len;
  Region.write_u16 q.region actor ~off:(off + 12) e.id;
  Region.write_u16 q.region actor ~off:(off + 14) e.flags

(* Availability predicate (VirtIO 1.1 §2.8.1): an element is available to
   the consumer with wrap counter [wrap] when AVAIL = wrap and USED != wrap. *)
let is_avail flags ~wrap =
  let a = flags land flag_avail <> 0 and u = flags land flag_used <> 0 in
  a = wrap && u <> wrap

let is_used flags ~wrap =
  let a = flags land flag_avail <> 0 and u = flags land flag_used <> 0 in
  a = wrap && u = wrap

let avail_flags ~wrap ~write =
  (if wrap then flag_avail else 0)
  lor (if not wrap then flag_used else 0)
  lor if write then flag_write else 0

let used_flags ~wrap = (if wrap then flag_avail lor flag_used else 0)

(* --- transport layout -------------------------------------------------- *)

type transport = {
  region : Region.t;
  rx : queue;
  tx : queue;
  queue_size : int;
  buf_size : int;
  rx_buf_base : int;
  tx_buf_base : int;
}

let create_transport ~name =
  let queue_size = 64 and buf_size = 2048 in
  let ring_bytes = Bitops.align_up (queue_footprint queue_size) ~align:64 in
  let rx_base = 0 and tx_base = ring_bytes in
  let rx_buf_base = 2 * ring_bytes in
  let tx_buf_base = rx_buf_base + (queue_size * buf_size) in
  let total = tx_buf_base + (queue_size * buf_size) in
  let region = Region.create ~model:Cost.default ~prot:Region.Shared ~name total in
  {
    region;
    rx = make_queue ~region ~base:rx_base ~size:queue_size;
    tx = make_queue ~region ~base:tx_base ~size:queue_size;
    queue_size;
    buf_size;
    rx_buf_base;
    tx_buf_base;
  }

let rx_buf_offset t slot = t.rx_buf_base + (slot * t.buf_size)
let tx_buf_offset t slot = t.tx_buf_base + (slot * t.buf_size)
let transport_region t = t.region
let transport_buf_size t = t.buf_size

(* --- host-side device model -------------------------------------------- *)

type misbehavior =
  | P_lie_len of int        (* complete RX with this length *)
  | P_bogus_id of int       (* complete with this buffer id *)
  | P_wrap_replay           (* republish the previous used element verbatim:
                               with the right timing it forges availability
                               on the next lap (wrap confusion) *)
  | P_premature_used        (* mark used before writing the data *)

type device = {
  dt : transport;
  transmit : bytes -> unit;
  mutable rx_next : int;  (* device-side ring cursors *)
  mutable tx_next : int;
  mutable rx_wrap : bool;
  mutable tx_wrap : bool;
  pending_rx : bytes Queue.t;
  faults : misbehavior Host_fault.queue;
  mutable last_used : (int * element) option;
}

let create_device ~transport ~transmit =
  {
    dt = transport;
    transmit;
    rx_next = 0;
    tx_next = 0;
    rx_wrap = true;
    tx_wrap = true;
    pending_rx = Queue.create ();
    faults = Host_fault.queue ();
    last_used = None;
  }

let device_inject d m = Host_fault.push d.faults m
let device_deliver_rx d frame = Queue.add frame d.pending_rx
let dtake d applies = Host_fault.take d.faults applies

let advance_device_cursor d ~tx =
  if tx then begin
    d.tx_next <- d.tx_next + 1;
    if d.tx_next = d.dt.queue_size then begin
      d.tx_next <- 0;
      d.tx_wrap <- not d.tx_wrap
    end
  end
  else begin
    d.rx_next <- d.rx_next + 1;
    if d.rx_next = d.dt.queue_size then begin
      d.rx_next <- 0;
      d.rx_wrap <- not d.rx_wrap
    end
  end

let device_complete d q slot ~id ~len ~wrap =
  let id = Option.value ~default:id (dtake d (function P_bogus_id b -> Some b | _ -> None)) in
  let len = Option.value ~default:len (dtake d (function P_lie_len l -> Some l | _ -> None)) in
  let e = { addr = 0; len; id; flags = used_flags ~wrap } in
  write_elem q Host slot e;
  (match dtake d (function P_wrap_replay -> Some () | _ -> None) with
  | Some () ->
      (* Republish a used element verbatim into the *next* slot: a stale
         element whose flag bits satisfy a wrap-unaware driver's
         completion check, making it swallow a phantom completion. *)
      let stale = match d.last_used with Some (_, prev) -> prev | None -> e in
      write_elem q Host ((slot + 1) land (d.dt.queue_size - 1)) stale
  | None -> ());
  d.last_used <- Some (slot, e)

let device_poll d =
  (* TX: consume driver-published elements. *)
  let continue = ref true in
  while !continue do
    let e = read_elem d.dt.tx Host d.tx_next in
    if is_avail e.flags ~wrap:d.tx_wrap then begin
      (match Region.host_read d.dt.region ~off:e.addr ~len:e.len with
      | frame -> d.transmit frame
      | exception Region.Fault _ -> () (* an unshared buffer: the frame is lost *));
      let slot = d.tx_next and wrap = d.tx_wrap in
      advance_device_cursor d ~tx:true;
      device_complete d d.dt.tx slot ~id:e.id ~len:0 ~wrap
    end
    else continue := false
  done;
  (* RX: fill driver-posted writable buffers with pending frames. *)
  let continue = ref true in
  while !continue && not (Queue.is_empty d.pending_rx) do
    let e = read_elem d.dt.rx Host d.rx_next in
    if is_avail e.flags ~wrap:d.rx_wrap then begin
      let frame = Queue.take d.pending_rx in
      let len = min (Bytes.length frame) e.len in
      let premature = dtake d (function P_premature_used -> Some () | _ -> None) <> None in
      let slot = d.rx_next and wrap = d.rx_wrap in
      advance_device_cursor d ~tx:false;
      if premature then
        (* Publish used *before* the DMA lands: the driver that reads on
           seeing USED observes whatever stale bytes the buffer held (the
           real frame arrives too late to matter — modelled by never
           landing it). A temporal/ordering violation unique to formats
           where completion and data share no barrier discipline. *)
        device_complete d d.dt.rx slot ~id:e.id ~len ~wrap
      else begin
        match Region.host_write d.dt.region ~off:e.addr (Bytes.sub frame 0 len) with
        | () -> device_complete d d.dt.rx slot ~id:e.id ~len ~wrap
        | exception Region.Fault _ -> ()
      end
    end
    else continue := false
  done

(* --- guest drivers ------------------------------------------------------ *)

type posted = { p_addr : int; p_len : int }

type driver = {
  gt : transport;
  hardened : bool;
  meter : Cost.meter;
  model : Cost.model;
  mutable g_rx_next : int;
  mutable g_tx_next : int;
  mutable g_rx_wrap : bool;  (* wrap counter for publishing RX buffers *)
  mutable g_tx_wrap : bool;
  mutable g_rx_used_next : int;  (* where we expect the next completion *)
  mutable g_tx_used_next : int;
  mutable g_rx_used_wrap : bool;
  mutable g_tx_used_wrap : bool;
  rx_shadow : posted option array;  (* hardened: posted addr/len by slot *)
  tx_shadow : posted option array;
  rxq : bytes Queue.t;
  mutable rejects_wrap : int;   (* hardened: wrap-confusion rejected *)
  mutable rejects_id : int;
  mutable clamped : int;
}

let charge dr cat cycles = Cost.charge dr.meter cat cycles

let post_rx dr slot =
  let addr = rx_buf_offset dr.gt slot and len = dr.gt.buf_size in
  write_elem dr.gt.rx Guest slot
    { addr; len; id = slot; flags = avail_flags ~wrap:dr.g_rx_wrap ~write:true };
  if dr.hardened then dr.rx_shadow.(slot) <- Some { p_addr = addr; p_len = len };
  charge dr Cost.Ring dr.model.Cost.ring_op;
  dr.g_rx_next <- dr.g_rx_next + 1;
  if dr.g_rx_next = dr.gt.queue_size then begin
    dr.g_rx_next <- 0;
    dr.g_rx_wrap <- not dr.g_rx_wrap
  end

let create_driver ~hardened transport =
  let dr =
    {
      gt = transport;
      hardened;
      meter = Region.meter transport.region;
      model = Region.model transport.region;
      g_rx_next = 0;
      g_tx_next = 0;
      g_rx_wrap = true;
      g_tx_wrap = true;
      g_rx_used_next = 0;
      g_tx_used_next = 0;
      g_rx_used_wrap = true;
      g_tx_used_wrap = true;
      rx_shadow = Array.make transport.queue_size None;
      tx_shadow = Array.make transport.queue_size None;
      rxq = Queue.create ();
      rejects_wrap = 0;
      rejects_id = 0;
      clamped = 0;
    }
  in
  for _ = 0 to transport.queue_size - 1 do
    post_rx dr dr.g_rx_next
  done;
  dr

let driver_rejects dr = (dr.rejects_wrap, dr.rejects_id, dr.clamped)

let driver_transmit dr frame =
  let len = Bytes.length frame in
  if len > dr.gt.buf_size then invalid_arg "Packed.driver_transmit: frame too large";
  let slot = dr.g_tx_next in
  (* Check the slot has been consumed (its element shows used for the
     previous lap, or we have not wrapped yet). The unhardened check
     trusts the in-place flags blindly; the hardened driver additionally
     requires the id to match its shadow discipline. *)
  let e = read_elem dr.gt.tx Guest slot in
  charge dr Cost.Ring dr.model.Cost.ring_op;
  let free =
    (* On the first lap every element is zeroed = free. Afterwards it must
       show used with our previous wrap. *)
    e.flags = 0 || is_used e.flags ~wrap:(not dr.g_tx_wrap) || is_used e.flags ~wrap:dr.g_tx_wrap
  in
  if not free then false
  else begin
    let addr = tx_buf_offset dr.gt slot in
    Region.guest_write dr.gt.region ~off:addr frame;
    if dr.hardened then begin
      Region.copy_out dr.gt.region ~off:addr frame;  (* bounce-style copy *)
      dr.tx_shadow.(slot) <- Some { p_addr = addr; p_len = len }
    end;
    write_elem dr.gt.tx Guest slot { addr; len; id = slot; flags = avail_flags ~wrap:dr.g_tx_wrap ~write:false };
    charge dr Cost.Ring dr.model.Cost.ring_op;
    dr.g_tx_next <- dr.g_tx_next + 1;
    if dr.g_tx_next = dr.gt.queue_size then begin
      dr.g_tx_next <- 0;
      dr.g_tx_wrap <- not dr.g_tx_wrap
    end;
    true
  end

let driver_poll dr =
  (* Reap RX completions at the expected cursor. *)
  let e = read_elem dr.gt.rx Guest dr.g_rx_used_next in
  charge dr Cost.Ring dr.model.Cost.ring_op;
  if not (is_used e.flags ~wrap:dr.g_rx_used_wrap) then begin
    (* Hardened: a stale republished element from a previous lap would
       show used for the WRONG wrap value; the unhardened driver checks
       only the bits, not the lap, so a wrap replay can fool it. *)
    if (not dr.hardened) && is_used e.flags ~wrap:(not dr.g_rx_used_wrap) && e.len > 0 then begin
      (* Unhardened wrap confusion: accept the stale element. *)
      let chunk = Region.guest_read dr.gt.region ~off:(rx_buf_offset dr.gt (e.id land 0xFFFF)) ~len:(min e.len dr.gt.buf_size) in
      Queue.add chunk dr.rxq
    end;
    if Queue.is_empty dr.rxq then None else Some (Queue.take dr.rxq)
  end
  else begin
    let slot = dr.g_rx_used_next in
    dr.g_rx_used_next <- dr.g_rx_used_next + 1;
    if dr.g_rx_used_next = dr.gt.queue_size then begin
      dr.g_rx_used_next <- 0;
      dr.g_rx_used_wrap <- not dr.g_rx_used_wrap
    end;
    let frame =
      if dr.hardened then begin
        charge dr Cost.Check (2 * dr.model.Cost.check);
        (* Validate the id against this lap's shadow and clamp the length
           to what was actually posted; read from the shadow address. *)
        if e.id < 0 || e.id >= dr.gt.queue_size then begin
          dr.rejects_id <- dr.rejects_id + 1;
          None
        end
        else begin
          match dr.rx_shadow.(e.id) with
          | None ->
              dr.rejects_id <- dr.rejects_id + 1;
              None
          | Some p ->
              dr.rx_shadow.(e.id) <- None;
              let len = min e.len p.p_len in
              if len < e.len then dr.clamped <- dr.clamped + 1;
              Some (Region.copy_in dr.gt.region ~off:p.p_addr ~len)
        end
      end
      else begin
        (* Unhardened: trust id and len as published by the device. *)
        let off = rx_buf_offset dr.gt e.id in
        Some (Region.guest_read dr.gt.region ~off ~len:e.len)
      end
    in
    (match frame with Some f -> Queue.add f dr.rxq | None -> ());
    (* Recycle the slot. *)
    post_rx dr slot;
    if Queue.is_empty dr.rxq then None else Some (Queue.take dr.rxq)
  end

(* The hardened packed driver's check inventory, for the E15 comparison:
   checks that exist *only because of the packed format* are marked. *)
let hardened_check_inventory =
  [
    ("bounds-check completion id", false);
    ("liveness-check id against shadow", false);
    ("clamp completion length to posted", false);
    ("read via shadowed addr, not in-place element", true);
    ("track wrap counters; reject stale-lap elements", true);
    ("treat in-place flags as device output after publish", true);
  ]

let split_hardened_check_inventory =
  [
    ("bounds-check used.id", false);
    ("liveness-check id against shadow", false);
    ("clamp used.len to posted", false);
    ("single-fetch used entries", true);
    ("never walk descriptor chains from shared memory", true);
  ]

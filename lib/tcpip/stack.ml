(* IP stack facade: binds a polling netif to the TCP layer.

   Address resolution is a static neighbour table fixed at construction —
   the §3.2 zero-negotiation principle applied to the stack itself (no ARP
   state machine, no renegotiation, parameters fixed at deployment). *)

open Cio_util
open Cio_frame

let src = Logs.Src.create "cio.stack" ~doc:"IP stack"

module Log = (val Logs.src_log src : Logs.LOG)

let m_txq_depth =
  Cio_telemetry.Metrics.histogram Cio_telemetry.Metrics.default "overload.txq.depth"

type counters = {
  mutable frames_in : int;
  mutable frames_out : int;
  mutable dropped : int;
  mutable last_drop_reason : string;
}

type t = {
  netif : Netif.t;
  ip : Addr.ipv4;
  ttl : int;
  neighbors : (Addr.ipv4 * Addr.mac) list;
  tcp : Tcp.t;
  meter : Cost.meter;
  model : Cost.model;
  now : unit -> int64;
  counters : counters;
  (* TX coalescing: when the netif offers a burst transmit, outgoing
     frames queue here and flush as batches (one ring crossing, one
     doorbell). Without [tx_burst] every frame transmits immediately —
     byte-identical to the uncoalesced stack. *)
  tx_burst : (bytes array -> int) option;
  (* The coalescing queue, oldest frame first. *)
  txq : bytes Fifo.t;
  (* [bursts.(k)] is the array a [k]-frame burst is lent in, made on
     first use and emptied after each flush. *)
  bursts : bytes array array;
  (* Every TX frame buffer comes from here: [tx_burst] only borrows a
     frame for the call, [transmit] keeps it. *)
  tx_pool : Cio_mem.Bufpool.t;
  (* Overload plane: when set, the TX coalescing queue is bounded and
     new frames shed (counted, typed) instead of growing it without
     limit while the ring is full. *)
  tx_queue_limit : int option;
  (* Frame-buffer return path: RX buffers go back to the driver's pool,
     else to [tx_pool], once handled (the decoders return views into the
     frame, and what outlives [handle_frame] is copied out first). *)
  recycle : (bytes -> unit) option;
  (* The RX headers: each frame is decoded into these, layer by layer,
     and read before the next frame is. *)
  rx_eth : Ethernet.t;
  rx_ip : Ipv4.t;
  rx_seg : Tcp_wire.t;
}

let drop t reason =
  t.counters.dropped <- t.counters.dropped + 1;
  t.counters.last_drop_reason <- reason;
  Log.debug (fun m -> m "drop: %s" reason)

(* Emit one built frame: queue for the next burst flush when coalescing,
   transmit immediately otherwise. Counters and charges are identical
   either way. With [tx_queue_limit] set, a full queue sheds the frame
   here — the backpressure signal the ring raised has reached the
   stack, and dropping at the source beats queueing without bound
   (TCP retransmits what mattered; the rest was load). *)
let emit t frame =
  match t.tx_burst with
  | Some _ -> (
      match t.tx_queue_limit with
      | Some lim when Fifo.length t.txq >= lim ->
          t.counters.dropped <- t.counters.dropped + 1;
          t.counters.last_drop_reason <- "tx backpressure: queue full";
          Cio_overload.Pressure.note_queue_full ();
          Cio_mem.Bufpool.recycle t.tx_pool frame
      | _ ->
          t.counters.frames_out <- t.counters.frames_out + 1;
          Cost.charge t.meter Cost.Stack 150;
          Fifo.push t.txq frame)
  | None ->
      t.counters.frames_out <- t.counters.frames_out + 1;
      Cost.charge t.meter Cost.Stack 150;
      t.netif.Netif.transmit frame

let max_burst = 64

let burst_array t k =
  let a = t.bursts.(k) in
  if Array.length a = k then a
  else begin
    let a = Array.make k Bytes.empty in
    t.bursts.(k) <- a;
    a
  end

(* Flush pending TX as bursts. A partial burst means the ring is full:
   the tail stays queued, in order, and the next poll retries. *)
let rec flush_with t burst =
  let k = Int.min max_burst (Fifo.length t.txq) in
  if k > 0 then begin
    let frames = burst_array t k in
    for i = 0 to k - 1 do
      frames.(i) <- Fifo.get t.txq i
    done;
    let n = burst frames in
    for _ = 1 to n do
      Cio_mem.Bufpool.recycle t.tx_pool (Fifo.pop t.txq)
    done;
    Array.fill frames 0 k Bytes.empty;
    if n = k then flush_with t burst
  end

let flush_tx t = match t.tx_burst with None -> () | Some burst -> flush_with t burst

(* Every outgoing frame is one buffer of its exact length: the transport
   header and payload go in at [l4_off], then the IPv4 and Ethernet
   headers in front of them. *)
let l4_off = Ethernet.header_len + Ipv4.header_len

let frame_buffer t ~l4_len =
  Cio_mem.Bufpool.acquire t.tx_pool (Ethernet.frame_len ~payload_len:(Ipv4.header_len + l4_len))

(* Put the IPv4 and Ethernet headers in front of the [l4_len]-byte
   transport segment at [l4_off], and emit the frame. *)
let send_frame t frame ~dst_mac ~dst ~protocol ~l4_len =
  Ipv4.encode frame ~off:Ethernet.header_len ~src:t.ip ~dst ~protocol ~ttl:t.ttl ~payload_len:l4_len;
  Ethernet.encode frame ~off:0 ~dst:dst_mac ~src:t.netif.Netif.mac ~ethertype:Ethernet.Ipv4
    ~payload_len:(Ipv4.header_len + l4_len);
  emit t frame

(* The static neighbour table; -1 (never a 48-bit MAC) when [dst] has no
   entry. *)
let rec neighbor_mac dst = function
  | [] -> -1
  | (ip, mac) :: rest -> if ip = dst then mac else neighbor_mac dst rest

(* A TCP segment: its payload is copied once, from the connection's send
   queue straight into the frame. *)
let send_tcp t ~dst (seg : Tcp_wire.t) q =
  match neighbor_mac dst t.neighbors with
  | -1 -> drop t "no neighbour entry"
  | dst_mac ->
      let hdr_len = Tcp_wire.header_len seg in
      let len = seg.Tcp_wire.payload_len in
      let frame = frame_buffer t ~l4_len:(hdr_len + len) in
      Byteq.blit q ~src_off:seg.Tcp_wire.payload_off frame ~dst_off:(l4_off + hdr_len) ~len;
      Tcp_wire.encode frame ~off:l4_off ~src_ip:t.ip ~dst_ip:dst seg;
      send_frame t frame ~dst_mac ~dst ~protocol:Ipv4.Tcp ~l4_len:(hdr_len + len)

let create ?(ttl = 64) ?(model = Cost.default) ?meter ?tx_burst ?recycle ?tx_queue_limit
    ?retry_budget ~netif ~ip ~neighbors ~now ~rng () =
  let meter = match meter with Some m -> m | None -> Cost.meter () in
  let rec t =
    lazy
      {
        netif;
        ip;
        ttl;
        neighbors;
        tcp =
          Tcp.create ~model ~meter ?retry_budget ~local_ip:ip
            ~send_segment:(fun ~dst seg q -> send_tcp (Lazy.force t) ~dst seg q)
            ~now ~rng ();
        meter;
        model;
        now;
        counters = { frames_in = 0; frames_out = 0; dropped = 0; last_drop_reason = "" };
        tx_burst;
        txq = Fifo.create Bytes.empty;
        bursts = Array.make (max_burst + 1) [||];
        tx_pool = Cio_mem.Bufpool.create ();
        tx_queue_limit;
        recycle;
        rx_eth = Ethernet.create ();
        rx_ip = Ipv4.create ();
        rx_seg = Tcp_wire.create ();
      }
  in
  Lazy.force t

let tcp t = t.tcp
let counters t = t.counters
let meter t = t.meter
let tx_backlog t = Fifo.length t.txq

(* Each layer decodes into the stack's own header for it, with a view
   into [frame]; nothing is copied until a consumer keeps bytes past
   this call. *)
let handle_frame t frame =
  t.counters.frames_in <- t.counters.frames_in + 1;
  Cost.charge t.meter Cost.Stack 150;
  let eth = t.rx_eth in
  match Ethernet.decode eth frame ~off:0 ~len:(Bytes.length frame) with
  | Error e -> drop t e
  | Ok () ->
      if eth.Ethernet.dst <> t.netif.Netif.mac && eth.Ethernet.dst <> Addr.mac_broadcast then
        drop t "ethernet: not for us"
      else begin
        match eth.Ethernet.ethertype with
        | Ethernet.Arp | Ethernet.Unknown _ -> drop t "ethernet: unhandled ethertype"
        | Ethernet.Ipv4 -> (
            let ip = t.rx_ip in
            match Ipv4.decode ip frame ~off:eth.Ethernet.payload_off ~len:eth.Ethernet.payload_len with
            | Error e -> drop t e
            | Ok () ->
                if ip.Ipv4.dst <> t.ip then drop t "ipv4: not our address"
                else begin
                  let src_ip = ip.Ipv4.src and dst_ip = ip.Ipv4.dst in
                  let off = ip.Ipv4.payload_off and len = ip.Ipv4.payload_len in
                  match ip.Ipv4.protocol with
                  | Ipv4.Tcp -> (
                      match Tcp_wire.decode t.rx_seg ~src_ip ~dst_ip frame ~off ~len with
                      | Error e -> drop t e
                      | Ok () -> Tcp.input t.tcp ~src:src_ip frame t.rx_seg)
                  | Ipv4.Unknown _ -> drop t "ipv4: unhandled protocol"
                end)
      end

(* One scheduling quantum: drain pending RX frames (bounded), then run TCP
   timers, then flush coalesced TX. Flushing last means segments generated
   while handling this quantum's RX (ACKs, echoes) leave in the same poll,
   as one burst. Drivers are polled, never notify. *)
let rx_budget = 64

let rec poll_rx t n =
  if n > 0 then begin
    match t.netif.Netif.poll () with
    | None -> ()
    | Some frame ->
        handle_frame t frame;
        (* Nothing holds a view into the frame any more; its buffer
           can be reused. *)
        (match t.recycle with Some r -> r frame | None -> Cio_mem.Bufpool.recycle t.tx_pool frame);
        poll_rx t (n - 1)
  end

let poll t =
  poll_rx t rx_budget;
  Tcp.tick t.tcp;
  (* Only bounded stacks observe queue depth — the classic stack keeps
     its metric stream byte-identical to the pre-overload build. *)
  (match t.tx_queue_limit with
  | Some _ -> Cio_telemetry.Metrics.observe m_txq_depth (Fifo.length t.txq)
  | None -> ());
  flush_tx t

(* IP stack facade: binds a polling netif to the TCP and UDP layers.

   Address resolution is a static neighbour table fixed at construction —
   the §3.2 zero-negotiation principle applied to the stack itself (no ARP
   state machine, no renegotiation, parameters fixed at deployment). *)

open Cio_util
open Cio_frame

let src = Logs.Src.create "cio.stack" ~doc:"IP stack"

module Log = (val Logs.src_log src : Logs.LOG)

let m_txq_depth =
  Cio_telemetry.Metrics.histogram Cio_telemetry.Metrics.default "overload.txq.depth"

type udp_socket = {
  uport : int;
  rxq : (Addr.ipv4 * int * bytes) Queue.t;
}

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
  mutable udp_socks : udp_socket list;
  meter : Cost.meter;
  model : Cost.model;
  now : unit -> int64;
  counters : counters;
  (* TX coalescing: when the netif offers a burst transmit, outgoing
     frames queue here and flush as batches (one ring crossing, one
     doorbell). Without [tx_burst] every frame transmits immediately —
     byte-identical to the uncoalesced stack. *)
  tx_burst : (bytes array -> int) option;
  txq : bytes Queue.t;
  (* TX frame buffers under [tx_burst], which only borrows a frame for
     the call: each accepted frame comes back here. Without it the netif
     keeps what it is given, so every frame is a fresh buffer. *)
  tx_pool : Cio_mem.Bufpool.t;
  (* Overload plane: when set, the TX coalescing queue is bounded and
     new frames shed (counted, typed) instead of growing it without
     limit while the ring is full. *)
  tx_queue_limit : int option;
  (* Frame-buffer return path: RX buffers go back to the driver's pool
     once handled (the decoders return views into the frame, and what
     outlives [handle_frame] is copied out of it first). *)
  recycle : (bytes -> unit) option;
}

let no_neighbour t =
  t.counters.dropped <- t.counters.dropped + 1;
  t.counters.last_drop_reason <- "no neighbour entry"

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
      | Some lim when Queue.length t.txq >= lim ->
          t.counters.dropped <- t.counters.dropped + 1;
          t.counters.last_drop_reason <- "tx backpressure: queue full";
          Cio_overload.Pressure.note_queue_full ();
          Cio_mem.Bufpool.recycle t.tx_pool frame
      | _ ->
          t.counters.frames_out <- t.counters.frames_out + 1;
          Cost.charge t.meter Cost.Stack 150;
          Queue.add frame t.txq)
  | None ->
      t.counters.frames_out <- t.counters.frames_out + 1;
      Cost.charge t.meter Cost.Stack 150;
      t.netif.Netif.transmit frame

(* Flush pending TX as bursts. A partial burst means the ring is full:
   requeue the tail and stop — the next poll retries. *)
let flush_tx t =
  match t.tx_burst with
  | None -> ()
  | Some burst ->
      let rec go () =
        let k = min 64 (Queue.length t.txq) in
        if k > 0 then begin
          let frames = Array.init k (fun _ -> Queue.take t.txq) in
          let n = burst frames in
          for i = 0 to n - 1 do
            Cio_mem.Bufpool.recycle t.tx_pool frames.(i)
          done;
          if n < k then begin
            let leftovers = Queue.create () in
            for i = n to k - 1 do
              Queue.add frames.(i) leftovers
            done;
            Queue.transfer t.txq leftovers;
            Queue.transfer leftovers t.txq
          end
          else go ()
        end
      in
      go ()

(* Every outgoing frame is one buffer of its exact length: the transport
   header and payload go in at [l4_off], then the IPv4 and Ethernet
   headers in front of them. *)
let l4_off = Ethernet.header_len + Ipv4.header_len

let frame_buffer t ~l4_len =
  let len = Ethernet.frame_len ~payload_len:(Ipv4.header_len + l4_len) in
  match t.tx_burst with
  | Some _ -> Cio_mem.Bufpool.acquire t.tx_pool len
  | None -> Bytes.create len

(* Put the IPv4 and Ethernet headers in front of the [l4_len]-byte
   transport segment at [l4_off], and emit the frame. *)
let send_frame t frame ~dst_mac ~dst ~protocol ~l4_len =
  Ipv4.encode frame ~off:Ethernet.header_len ~src:t.ip ~dst ~protocol ~ttl:t.ttl ~payload_len:l4_len;
  Ethernet.encode frame ~off:0 ~dst:dst_mac ~src:t.netif.Netif.mac ~ethertype:Ethernet.Ipv4
    ~payload_len:(Ipv4.header_len + l4_len);
  emit t frame

(* A TCP segment: its payload is copied once, from the connection's send
   queue straight into the frame. *)
let send_tcp t ~dst (seg : Tcp_wire.t) q =
  match List.assoc dst t.neighbors with
  | exception Not_found -> no_neighbour t
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
        udp_socks = [];
        meter;
        model;
        now;
        counters = { frames_in = 0; frames_out = 0; dropped = 0; last_drop_reason = "" };
        tx_burst;
        txq = Queue.create ();
        tx_pool = Cio_mem.Bufpool.create ();
        tx_queue_limit;
        recycle;
      }
  in
  Lazy.force t

let tcp t = t.tcp
let ip t = t.ip
let counters t = t.counters
let meter t = t.meter
let tx_backlog t = Queue.length t.txq

let tx_pressure t =
  match t.tx_queue_limit with
  | None -> Cio_overload.Pressure.Nominal
  | Some lim ->
      Cio_overload.Pressure.level_of_occupancy ~used:(Queue.length t.txq) ~capacity:lim

let send_udp t ~src_port ~dst ~dst_port payload =
  match List.assoc dst t.neighbors with
  | exception Not_found -> no_neighbour t
  | dst_mac ->
      let payload_len = Bytes.length payload in
      let frame = frame_buffer t ~l4_len:(Udp.header_len + payload_len) in
      Bytes.blit payload 0 frame (l4_off + Udp.header_len) payload_len;
      Udp.encode frame ~off:l4_off ~src_ip:t.ip ~dst_ip:dst ~src_port ~dst_port ~payload_len;
      send_frame t frame ~dst_mac ~dst ~protocol:Ipv4.Udp ~l4_len:(Udp.header_len + payload_len)

let udp_bind t ~port =
  if List.exists (fun s -> s.uport = port) t.udp_socks then
    invalid_arg "Stack.udp_bind: port already bound";
  let s = { uport = port; rxq = Queue.create () } in
  t.udp_socks <- s :: t.udp_socks;
  s

let udp_recv s = if Queue.is_empty s.rxq then None else Some (Queue.take s.rxq)

let drop t reason =
  t.counters.dropped <- t.counters.dropped + 1;
  t.counters.last_drop_reason <- reason;
  Log.debug (fun m -> m "drop: %s" reason)

(* Each layer decodes a view into [frame]; nothing is copied until a
   consumer keeps bytes past this call. *)
let handle_frame t frame =
  t.counters.frames_in <- t.counters.frames_in + 1;
  Cost.charge t.meter Cost.Stack 150;
  match Ethernet.decode frame ~off:0 ~len:(Bytes.length frame) with
  | Error e -> drop t e
  | Ok eth ->
      if eth.Ethernet.dst <> t.netif.Netif.mac && eth.Ethernet.dst <> Addr.mac_broadcast then
        drop t "ethernet: not for us"
      else begin
        match eth.Ethernet.ethertype with
        | Ethernet.Arp | Ethernet.Unknown _ -> drop t "ethernet: unhandled ethertype"
        | Ethernet.Ipv4 -> (
            match Ipv4.decode frame ~off:eth.Ethernet.payload_off ~len:eth.Ethernet.payload_len with
            | Error e -> drop t e
            | Ok ip ->
                if ip.Ipv4.dst <> t.ip then drop t "ipv4: not our address"
                else begin
                  let src_ip = ip.Ipv4.src and dst_ip = ip.Ipv4.dst in
                  let off = ip.Ipv4.payload_off and len = ip.Ipv4.payload_len in
                  match ip.Ipv4.protocol with
                  | Ipv4.Tcp -> (
                      match Tcp_wire.decode ~src_ip ~dst_ip frame ~off ~len with
                      | Error e -> drop t e
                      | Ok seg -> Tcp.input t.tcp ~src:src_ip frame seg)
                  | Ipv4.Udp -> (
                      match Udp.decode ~src_ip ~dst_ip frame ~off ~len with
                      | Error e -> drop t e
                      | Ok dgram -> (
                          match List.find_opt (fun s -> s.uport = dgram.Udp.dst_port) t.udp_socks with
                          | None -> drop t "udp: no socket bound"
                          | Some s ->
                              if Queue.length s.rxq < 1024 then
                                Queue.add
                                  ( src_ip,
                                    dgram.Udp.src_port,
                                    Bytes.sub frame dgram.Udp.payload_off dgram.Udp.payload_len )
                                  s.rxq
                              else drop t "udp: socket queue full"))
                  | Ipv4.Unknown _ -> drop t "ipv4: unhandled protocol"
                end)
      end

(* One scheduling quantum: drain pending RX frames (bounded), then run TCP
   timers, then flush coalesced TX. Flushing last means segments generated
   while handling this quantum's RX (ACKs, echoes) leave in the same poll,
   as one burst. Drivers are polled, never notify. *)
let rx_budget = 64

let poll t =
  let rec go n =
    if n > 0 then begin
      match t.netif.Netif.poll () with
      | None -> ()
      | Some frame ->
          handle_frame t frame;
          (* Nothing holds a view into the frame any more; its buffer
             can go back to the driver's pool. *)
          (match t.recycle with Some r -> r frame | None -> ());
          go (n - 1)
    end
  in
  go rx_budget;
  Tcp.tick t.tcp;
  (* Only bounded stacks observe queue depth — the classic stack keeps
     its metric stream byte-identical to the pre-overload build. *)
  if t.tx_queue_limit <> None then
    Cio_telemetry.Metrics.observe m_txq_depth (Queue.length t.txq);
  flush_tx t

(* The five confidential-I/O architectures of Figure 5, built end-to-end
   on the same simulated substrate and driven by the same workload:

   - syscall-l5      Graphene/CCF-class: host runs the stack, the TEE
                     keeps only TLS; every socket op is an enclave exit.
   - passthrough-l2  rkt-io/ShieldBox-class: full stack + *unhardened*
                     legacy transport inside the TEE.
   - hardened-virtio lift-and-shift CVM: stack + retrofitted-checks
                     driver inside the TEE.
   - tunneled        LightBox-class: stack in the TEE, every L2 frame
                     sealed and padded into a tunnel.
   - dual-boundary   this work: cionet + quarantined stack + mandatory
                     TLS at a compartment-gated L5.

   Each run reports the TEE's counted work (cycles, by category) and the
   host-observability tap; [tcb] names the guest components each wiring
   trusts. Together they are the three axes of Figure 5. *)

open Cio_util
open Cio_netsim
open Cio_tcpip
open Cio_tls
module Compartment = Cio_compartment.Compartment
module Trace = Cio_telemetry.Trace
module Metrics = Cio_telemetry.Metrics
module Kind_ = Cio_telemetry.Kind
module Tcb = Cio_tcb.Tcb

type kind = Syscall_l5 | Passthrough_l2 | Hardened_virtio | Tunneled | Dual_boundary

let kind_name = function
  | Syscall_l5 -> "syscall-l5"
  | Passthrough_l2 -> "passthrough-l2"
  | Hardened_virtio -> "hardened-virtio"
  | Tunneled -> "tunneled"
  | Dual_boundary -> "dual-boundary"

let all_kinds = [ Syscall_l5; Passthrough_l2; Hardened_virtio; Tunneled; Dual_boundary ]

type metrics = {
  kind : kind;
  completed : bool;
  messages : int;
  app_bytes : int;       (* application payload bytes echoed, both ways *)
  guest : Cost.meter;    (* the TEE's counted work *)
  host : Cost.meter;     (* host-side work (for reference) *)
  sim_ns : int64;
  tap : Cio_observe.Observe.t;
  link_frames : int;
  link_bytes : int;
  crossings : int;       (* L5 boundary crossings (dual only) *)
}

let cycles_per_byte m =
  if m.app_bytes = 0 then infinity else float_of_int (Cost.total m.guest) /. float_of_int m.app_bytes

(* A configuration instance: how the harness drives the confidential side. *)
type endpoint = {
  pump : unit -> unit;          (* one confidential-side scheduling quantum *)
  host_pump : unit -> unit;     (* one host-side quantum *)
  send : bytes -> bool;         (* queue one application message *)
  recv : unit -> bytes option;  (* next echoed message *)
  established : unit -> bool;
  failed : unit -> bool;
  guest_meter : Cost.meter;
  host_meter : Cost.meter;
  crossings : unit -> int;
}

let psk_id = "tenant-0001"
let tunnel_key = Bytes.of_string "tunnel-key-tunnel-key-tunnel-32b"
let tunnel_pad = 1600

(* Channel-based confidential endpoints (every kind except syscall-l5). *)
let channel_endpoint ~channel ~pump ~host_pump ~guest_meter ~host_meter ~crossings =
  {
    pump;
    host_pump;
    send = (fun msg -> match Channel.send channel msg with Ok () -> true | Error _ -> false);
    recv = (fun () -> Channel.recv channel);
    established = (fun () -> Channel.is_established channel);
    failed = (fun () -> Channel.error channel <> None);
    guest_meter;
    host_meter;
    crossings;
  }

let make_dual ?cionet_config bed =
  let d = Testbed.attach_dual ?cionet_config bed in
  let unit_ = d.Testbed.unit_ in
  channel_endpoint ~channel:(Testbed.connect d)
    ~pump:(fun () -> Dual.poll unit_)
    ~host_pump:(fun () -> Cio_cionet.Host_model.poll d.Testbed.host)
    ~guest_meter:(Dual.meter unit_)
    ~host_meter:(Cio_cionet.Driver.host_meter (Dual.driver unit_))
    ~crossings:(fun () -> Dual.crossings unit_)

(* Legacy virtio transport on the TEE's end of the link: the guest netif
   and the host-side pump. Doorbell/interrupt traffic is host-visible, so
   the host pump surfaces it in the tap. *)
let virtio_transport (bed : Testbed.t) ~meter ~hardened =
  let transport = Cio_virtio.Transport.create ~meter ~name:"virtio-tee" () in
  let device =
    Cio_virtio.Device.create ~rx:(Cio_virtio.Transport.rx transport)
      ~tx:(Cio_virtio.Transport.tx transport) ~transmit:(Testbed.transmit bed)
  in
  Link.attach bed.link Link.A (fun frame -> Cio_virtio.Device.deliver_rx device frame);
  let netif, get_kicks, get_irqs =
    if hardened then begin
      let d = Cio_virtio.Driver_hardened.create transport in
      ( Cio_virtio.Driver_hardened.to_netif d ~mac:Testbed.mac_tee,
        (fun () -> Cio_virtio.Driver_hardened.kicks d),
        fun () -> Cio_virtio.Driver_hardened.irqs d )
    end
    else begin
      let d = Cio_virtio.Driver_unhardened.create transport in
      ( Cio_virtio.Driver_unhardened.to_netif d ~mac:Testbed.mac_tee,
        (fun () -> Cio_virtio.Driver_unhardened.kicks d),
        fun () -> Cio_virtio.Driver_unhardened.irqs d )
    end
  in
  let last_kicks = ref 0 and last_irqs = ref 0 in
  let record_notifications kicks irqs =
    for _ = 1 to kicks - !last_kicks do
      Cio_observe.Observe.record bed.tap ~time:(Engine.now bed.engine) ~kind:Kind_.kick ~size:0
    done;
    for _ = 1 to irqs - !last_irqs do
      Cio_observe.Observe.record bed.tap ~time:(Engine.now bed.engine) ~kind:Kind_.irq ~size:0
    done;
    last_kicks := kicks;
    last_irqs := irqs
  in
  let host_pump () =
    Cio_virtio.Device.poll device;
    record_notifications (get_kicks ()) (get_irqs ())
  in
  (netif, host_pump)

(* A polled cionet device on the TEE's end of the link, served by an
   honest host model: the guest netif and the host-side pump. *)
let cionet_transport (bed : Testbed.t) ~meter ~host_meter =
  let driver =
    Cio_cionet.Driver.create ~meter ~host_meter ~name:"cionet-tee"
      { Cio_cionet.Config.default with Cio_cionet.Config.mac = Testbed.mac_tee }
  in
  let host = Cio_cionet.Host_model.create ~driver ~transmit:(Testbed.transmit bed) in
  Link.attach bed.link Link.A (fun frame -> Cio_cionet.Host_model.deliver_rx host frame);
  (Cio_cionet.Driver.to_netif driver, fun () -> Cio_cionet.Host_model.poll host)

(* The in-core datapath over [netif]: stack, PSK session, one TCP
   connection to the echo peer and the record channel over it, with the
   handshake started. With [quarantine] the stack sits behind that
   compartment's gate: distrust copies at L5 plus a gate per data
   handoff. Without it the stack is trusted: no copies, no gates. *)
let in_core (bed : Testbed.t) ?quarantine ~netif ~host_pump ~guest_meter ~host_meter () =
  let stack =
    Stack.create ~meter:guest_meter ~netif ~ip:Testbed.ip_tee ~neighbors:Testbed.neighbors_tee
      ~now:(Testbed.now bed) ~rng:(Rng.split bed.rng) ()
  in
  let session =
    Session.create ~meter:guest_meter ~role:Session.Client ~psk:Testbed.psk ~psk_id
      ~rng:(Rng.split bed.rng) ()
  in
  let conn = Tcp.connect (Stack.tcp stack) ~dst:Testbed.ip_peer ~dst_port:Testbed.echo_port () in
  let channel =
    Channel.create ~zero_copy_send:true ~copy_on_recv:(quarantine <> None) ~meter:guest_meter
      ~session ~stack ~conn ()
  in
  ignore (Channel.start_handshake channel);
  let pump () =
    Stack.poll stack;
    (match quarantine with
    | Some world -> if Channel.io_pump channel then Compartment.charge_crossing world
    | None -> ignore (Channel.io_pump channel));
    Channel.app_pump channel
  in
  channel_endpoint ~channel ~pump ~host_pump ~guest_meter ~host_meter ~crossings:(fun () ->
      match quarantine with
      | Some world -> (Compartment.counters world).Compartment.crossings
      | None -> 0)

(* Single-boundary TEE over a virtio transport (passthrough / hardened).
   The whole stack lives in the core TCB: no compartment, no L5 distrust
   copies. *)
let make_virtio bed ~hardened =
  let guest_meter = Cost.meter () in
  let netif, host_pump = virtio_transport bed ~meter:guest_meter ~hardened in
  in_core bed ~netif ~host_pump ~guest_meter ~host_meter:(Cost.meter ()) ()

(* LightBox-class tunneled design: the stack and a DPDK-style polled
   transport live in the TEE (single boundary, XL core TCB), and every
   L2 frame is sealed into a fixed-size tunnel blob with cadence padding
   (dummy blobs when idle). The host observes only uniform ciphertext. *)
let make_tunneled (bed : Testbed.t) =
  let guest_meter = Cost.meter () in
  let host_meter = Cost.meter () in
  let base_netif, host_pump = cionet_transport bed ~meter:guest_meter ~host_meter in
  let model = Cost.default in
  let dummy_interval_ns = 20_000L in
  let last_tx = ref 0L in
  let tx_sealed frame =
    last_tx := Engine.now bed.engine;
    (* Encapsulation pays full-pad crypto plus the assembly copy. *)
    Cost.charge guest_meter Cost.Crypto (Cost.aead_cost model tunnel_pad);
    Cost.charge guest_meter Cost.Copy (Cost.copy_cost model tunnel_pad);
    base_netif.Netif.transmit (Tunnel.seal ~key:tunnel_key ~pad_to:tunnel_pad frame)
  in
  let netif =
    {
      base_netif with
      Netif.mtu = base_netif.Netif.mtu - 64;
      transmit = tx_sealed;
      poll =
        (fun () ->
          if Int64.sub (Engine.now bed.engine) !last_tx >= dummy_interval_ns then
            tx_sealed Bytes.empty;
          match base_netif.Netif.poll () with
          | None -> None
          | Some blob -> (
              Cost.charge guest_meter Cost.Crypto (Cost.aead_cost model (Bytes.length blob));
              Cost.charge guest_meter Cost.Copy (Cost.copy_cost model (Bytes.length blob));
              match Tunnel.open_ ~key:tunnel_key blob with
              | Some frame -> if Bytes.length frame = 0 then None else Some frame
              | None -> None));
    }
  in
  in_core bed ~netif ~host_pump ~guest_meter ~host_meter ()

(* Graphene/CCF-class syscall-level design: the host owns the stack; the
   TEE holds only the TLS endpoint. Every socket call is a world switch
   the host both serves and observes. *)
let make_syscall (bed : Testbed.t) =
  let model = Cost.default in
  let guest_meter = Cost.meter () in
  let host_meter = Cost.meter () in
  let rxq = Queue.create () in
  Link.attach bed.link Link.A (fun frame -> Queue.add frame rxq);
  let netif =
    {
      Netif.mac = Testbed.mac_tee;
      mtu = 1500;
      transmit = Testbed.transmit bed;
      poll = (fun () -> if Queue.is_empty rxq then None else Some (Queue.take rxq));
    }
  in
  (* The host stack: charged to the host meter — it is not TEE work. *)
  let stack =
    Stack.create ~meter:host_meter ~netif ~ip:Testbed.ip_tee ~neighbors:Testbed.neighbors_tee
      ~now:(Testbed.now bed) ~rng:(Rng.split bed.rng) ()
  in
  let session =
    Session.create ~meter:guest_meter ~role:Session.Client ~psk:Testbed.psk ~psk_id
      ~rng:(Rng.split bed.rng) ()
  in
  let conn = Tcp.connect (Stack.tcp stack) ~dst:Testbed.ip_peer ~dst_port:Testbed.echo_port () in
  let syscall kind size =
    Cost.charge guest_meter Cost.Tee_switch model.Cost.tee_switch;
    (* Enclave-boundary marshalling: buffers are copied across the exit. *)
    if size > 0 then Cost.charge guest_meter Cost.Copy (Cost.copy_cost model size);
    Cio_observe.Observe.record bed.tap ~time:(Engine.now bed.engine) ~kind ~size
  in
  let inbox = Queue.create () in
  let sealed = Byteq.create 4096 in
  let outbox = Buffer.create 4096 in
  let failed = ref false in
  let push_wire wire =
    (* One send syscall per record: the host sees the call and its size. *)
    syscall Kind_.sys_send (Bytes.length wire);
    Buffer.add_bytes outbox wire
  in
  let flush_outbox () =
    let pending = Buffer.length outbox in
    if pending > 0 then begin
      let data = Buffer.to_bytes outbox in
      let accepted = Tcp.send (Stack.tcp stack) conn data in
      if accepted > 0 then begin
        Buffer.clear outbox;
        if accepted < pending then Buffer.add_subbytes outbox data accepted (pending - accepted);
        Tcp.flush (Stack.tcp stack) conn
      end
    end
  in
  (match Session.initiate session with
  | Ok flights -> List.iter push_wire flights
  | Error _ -> failed := true);
  let pump () =
    flush_outbox ();
    (* A recv syscall only when the host has data to deliver (an
       event-driven ocall, not a busy spin). *)
    if Tcp.recv_available conn > 0 then begin
      syscall Kind_.sys_recv 0;
      let b = Tcp.recv (Stack.tcp stack) conn ~max:65536 in
      if Bytes.length b > 0 then begin
        Cost.charge guest_meter Cost.Copy (Cost.copy_cost model (Bytes.length b));
        Cio_observe.Observe.record bed.tap ~time:(Engine.now bed.engine) ~kind:Kind_.sys_recv_data
          ~size:(Bytes.length b);
        let err = Session.feed_into session b ~off:0 ~len:(Bytes.length b) inbox in
        List.iter push_wire (Session.take_flights session);
        if Option.is_some err then failed := true;
        flush_outbox ()
      end
    end
  in
  let host_pump () = Stack.poll stack in
  {
    pump;
    host_pump;
    send =
      (fun msg ->
        match Session.send_data_into session msg sealed with
        | Ok () ->
            push_wire (Byteq.take sealed (Byteq.length sealed));
            true
        | Error _ ->
            failed := true;
            false);
    recv = (fun () -> if Queue.is_empty inbox then None else Some (Queue.take inbox));
    established = (fun () -> Session.is_established session);
    failed = (fun () -> !failed);
    guest_meter;
    host_meter;
    crossings = (fun () -> 0);
  }

let make_endpoint ?cionet_config bed = function
  | Dual_boundary -> make_dual ?cionet_config bed
  | Passthrough_l2 -> make_virtio bed ~hardened:false
  | Hardened_virtio -> make_virtio bed ~hardened:true
  | Tunneled -> make_tunneled bed
  | Syscall_l5 -> make_syscall bed

type tcb = { core : Tcb.component list; quarantined : Tcb.component list }

(* The guest components each builder above runs, split by what their
   compromise exposes: core code sees application data, quarantined code
   sits behind the L5 compartment gate and yields observability only.
   Host models and harness code are in neither list. *)
let tcb = function
  | Syscall_l5 ->
      (* The host runs the stack; the TEE keeps the TLS endpoint. *)
      { core = [ Tls; Crypto ]; quarantined = [] }
  | Passthrough_l2 ->
      { core = [ Tcpip_stack; Virtio_queue; Virtio_unhardened; Tls; Crypto ]; quarantined = [] }
  | Hardened_virtio ->
      { core = [ Tcpip_stack; Virtio_queue; Virtio_hardened; Tls; Crypto ]; quarantined = [] }
  | Tunneled -> { core = [ Tcpip_stack; Cionet_driver; Tunnel; Tls; Crypto ]; quarantined = [] }
  | Dual_boundary ->
      { core = [ Tls; Crypto; Compartment_runtime ]; quarantined = [ Tcpip_stack; Cionet_driver ] }

(* The echo loop: [messages] application messages of [msg_size] bytes,
   each echoed back by the peer, with a small pipelining window.
   [on_send] and [on_echo] observe each send and each echo; the result is
   the number of echoes. *)
let echo_loop bed ep ~msg_size ~messages ~on_send ~on_echo =
  let window = 4 and quantum_ns = 2_000L and max_steps = 400_000 in
  let payload = Bytes.make msg_size 'm' in
  let sent = ref 0 and echoes = ref 0 and steps = ref 0 in
  while !echoes < messages && !steps < max_steps && not (ep.failed ()) do
    incr steps;
    Testbed.step bed ~guest:ep.pump ~host:ep.host_pump ~by:quantum_ns;
    if ep.established () then
      while !sent < messages && !sent - !echoes < window && ep.send payload do
        incr sent;
        on_send ()
      done;
    let rec drain () =
      match ep.recv () with
      | Some _ ->
          incr echoes;
          on_echo ();
          drain ()
      | None -> ()
    in
    drain ()
  done;
  !echoes

(* Custom wirings for the E16 decomposition ablation: transport choice
   (legacy hardened virtio vs cionet) crossed with boundary placement
   (stack in the core TCB vs quarantined behind a compartment gate). The
   four cells isolate how much of the dual design's win comes from the
   safe transport and how much from the boundary split. *)

type transport_choice = T_virtio_hardened | T_cionet

let transport_name = function T_virtio_hardened -> "virtio-hardened" | T_cionet -> "cionet"

let run_echo_custom ~transport ~quarantined =
  let msg_size = 1024 and messages = 30 in
  let bed = Testbed.create ~latency_ns:10_000L ~name:"custom" ~psk_id ~seed:1L () in
  let guest_meter = Cost.meter () in
  let host_meter = Cost.meter () in
  let netif, host_pump =
    match transport with
    | T_cionet -> cionet_transport bed ~meter:guest_meter ~host_meter
    | T_virtio_hardened -> virtio_transport bed ~meter:guest_meter ~hardened:true
  in
  let quarantine =
    if quarantined then Some (Compartment.create ~meter:guest_meter ~crossing:Compartment.Gate ())
    else None
  in
  let ep = in_core bed ?quarantine ~netif ~host_pump ~guest_meter ~host_meter () in
  let echoes = echo_loop bed ep ~msg_size ~messages ~on_send:ignore ~on_echo:ignore in
  ( echoes >= messages,
    float_of_int (Cost.total ep.guest_meter) /. float_of_int (max 1 (2 * msg_size * echoes)),
    ep.crossings () )

let run_echo ?(seed = 1L) ?(msg_size = 1024) ?(messages = 50) ?cionet_config kind =
  let peer_codec =
    match kind with
    | Tunneled ->
        Some
          ( (fun frame -> Tunnel.seal ~key:tunnel_key ~pad_to:tunnel_pad frame),
            fun blob -> Tunnel.open_ ~key:tunnel_key blob )
    | _ -> None
  in
  let bed =
    Testbed.create ~latency_ns:10_000L ?peer_codec ~name:(kind_name kind) ~psk_id ~seed ()
  in
  let ep = make_endpoint ?cionet_config bed kind in
  (* Echoes come back in order, so a FIFO of send timestamps gives each
     round trip's virtual-time latency. *)
  let rtt = Metrics.histogram Metrics.default ("echo.rtt_us." ^ kind_name kind) in
  let in_flight_at : int64 Queue.t = Queue.create () in
  let traced = Trace.on () in
  let on_send () =
    Queue.add (Engine.now bed.engine) in_flight_at;
    if traced then Trace.instant ~arg:msg_size ~cat:Kind_.experiment "echo-send"
  in
  let on_echo () =
    match Queue.take_opt in_flight_at with
    | Some t0 ->
        let us = Int64.to_int (Int64.div (Int64.sub (Engine.now bed.engine) t0) 1_000L) in
        Metrics.observe rtt us;
        if traced then Trace.instant ~arg:us ~cat:Kind_.experiment "echo-recv"
    | None -> ()
  in
  let echoes = echo_loop bed ep ~msg_size ~messages ~on_send ~on_echo in
  {
    kind;
    completed = echoes >= messages;
    messages = echoes;
    app_bytes = 2 * msg_size * echoes;
    guest = Cost.snapshot ep.guest_meter;
    host = Cost.snapshot ep.host_meter;
    sim_ns = Engine.now bed.engine;
    tap = bed.tap;
    link_frames = Link.frames_sent bed.link ~src:Link.A + Link.frames_sent bed.link ~src:Link.B;
    link_bytes = Link.bytes_sent bed.link ~src:Link.A + Link.bytes_sent bed.link ~src:Link.B;
    crossings = ep.crossings ();
  }

(* The dual-boundary confidential unit — the paper's proposed design,
   assembled: a strong, safe-by-construction host boundary at L2
   (cionet), the whole TCP/IP stack quarantined in an intra-TEE
   compartment, and a lightweight single-distrust boundary at L5 where
   the mandatory TLS layer authenticates everything the stack delivers.

   Ternary trust model (§3.1):
     app domain   — trusts nothing below it; its data never leaves
                    unsealed;
     I/O stack    — trusted by nobody, trusts the app; compromise yields
                    observability only;
     host         — trusted by nobody; sees exactly what it could see on
                    the wire. *)

open Cio_util
open Cio_tcpip
open Cio_tls
open Cio_compartment

type t = {
  world : Compartment.t;
  app : Compartment.domain;
  io : Compartment.domain;
  driver : Cio_cionet.Driver.t;
  mutable stack : Stack.t;
  meter : Cost.meter;
  ip : Cio_frame.Addr.ipv4;
  neighbors : (Cio_frame.Addr.ipv4 * Cio_frame.Addr.mac) list;
  now : unit -> int64;
  psk : bytes;
  psk_id : string;
  rng : Rng.t;
  mutable reconnects : int;
  (* The unit's overload-control plane; [None] = classic unguarded unit.
     The plane survives I/O-stack restarts (it guards the app-side
     boundary and its breaker/budget describe the *host*, which a stack
     rebirth does not change). *)
  plane : Cio_overload.Plane.t option;
  mutable channels : Channel.t list;
}

type listener = { tcp_listener : Tcp.listener; unit_ : t }

let enter_io t f = Compartment.call t.world ~caller:t.app ~callee:t.io f

(* The quarantined stack over the unit's driver. The closures capture
   [driver] (whose instance is swapped in place on hot swap), so burst
   TX, the receive and buffer recycling survive restarts; the overload
   plane, if any, bounds TX coalescing and shares its retry budget with
   TCP. *)
let make_stack ~meter ~driver ~plane ~ip ~neighbors ~now ~rng =
  Stack.create ~meter
    ~tx_burst:(fun frames -> Cio_cionet.Driver.transmit_burst driver frames)
    ~recycle:(fun f -> Cio_cionet.Driver.recycle driver f)
    ~recv:(fun () -> Cio_cionet.Driver.recv driver)
    ?tx_queue_limit:
      (Option.map (fun p -> (Cio_overload.Plane.config p).Cio_overload.Plane.queue_limit) plane)
    ?retry_budget:(Option.map Cio_overload.Plane.retry_budget plane)
    ~netif:(Cio_cionet.Driver.to_netif driver)
    ~ip ~neighbors ~now ~rng ()

let create ?(cionet_config = Cio_cionet.Config.default) ~mac ?overload ~name ~ip ~neighbors ~psk
    ~psk_id ~rng ~now () =
  let cionet_config = { cionet_config with Cio_cionet.Config.mac } in
  let meter = Cost.meter () in
  let world = Compartment.create ~meter ~crossing:Compartment.Gate () in
  let app = Compartment.add_domain world ~name:"app" in
  let io = Compartment.add_domain world ~name:"iostack" in
  let driver = Cio_cionet.Driver.create ~meter ~name cionet_config in
  let plane =
    Option.map
      (fun config -> Cio_overload.Plane.create ~config ~rng:(Rng.split rng) ~now ())
      overload
  in
  let stack = make_stack ~meter ~driver ~plane ~ip ~neighbors ~now ~rng in
  {
    world;
    app;
    io;
    driver;
    stack;
    meter;
    ip;
    neighbors;
    now;
    psk;
    psk_id;
    rng;
    reconnects = 0;
    plane;
    channels = [];
  }

let meter t = t.meter
let driver t = t.driver
let stack t = t.stack
let world t = t.world
let crossings t = (Compartment.counters t.world).Compartment.crossings
let reconnects t = t.reconnects
let overload t = t.plane
let io_alive t = Compartment.domain_alive t.io

(* I/O-stack death and rebirth — the ternary trust model's recovery
   story. The quarantined stack crashing (or being killed because the
   host drove it somewhere untrustworthy) loses only I/O state: TCP
   connections, reassembly buffers, ring cursors. The app's secrets sit
   behind the L5 TLS boundary in a different domain, so nothing leaks —
   and because the L2 interface is stateless and the TLS resumption is a
   fresh PSK handshake (zero renegotiation: no session state to migrate),
   recovery is mechanical: new rings, new stack, new TCP connection, new
   session. *)
let crash_io t =
  if Cio_telemetry.Trace.on () then
    Cio_telemetry.Trace.instant ~cat:Cio_telemetry.Kind.l5 "crash-io";
  Compartment.crash_domain t.world t.io

let restart_io t =
  if Cio_telemetry.Trace.on () then
    Cio_telemetry.Trace.instant ~cat:Cio_telemetry.Kind.l5 "restart-io";
  if not (Compartment.domain_alive t.io) then Compartment.restart_domain t.world t.io;
  (* The old instance's shared region is revoked wholesale; the dead
     stack's connections are unreachable garbage. *)
  Cio_cionet.Driver.hot_swap t.driver;
  t.channels <- [];
  t.stack <-
    make_stack ~meter:t.meter ~driver:t.driver ~plane:t.plane ~ip:t.ip ~neighbors:t.neighbors
      ~now:t.now ~rng:t.rng

let make_channel t ~role ~conn =
  let session = Session.create ~meter:t.meter ~role ~psk:t.psk ~psk_id:t.psk_id ~rng:t.rng () in
  let ch =
    Channel.create ~zero_copy_send:true ~copy_on_recv:true ~enter_io:(fun f -> enter_io t f)
      ?overload:t.plane ~meter:t.meter ~session ~stack:t.stack ~conn ()
  in
  t.channels <- ch :: t.channels;
  ch

let connect t ~dst ~dst_port =
  let conn = enter_io t (fun () -> Tcp.connect (Stack.tcp t.stack) ~dst ~dst_port ()) in
  let ch = make_channel t ~role:Session.Client ~conn in
  match Channel.start_handshake ch with Ok () -> ch | Error _ -> ch

(* Replace a dead channel: same destination, fresh TCP connection, fresh
   PSK session. TLS failures are fail-closed and poison the session, so
   this is the *only* way forward after tampering or a stack restart —
   exactly the paper's zero-renegotiation stance. *)
let reconnect t ch =
  let dst, dst_port = Tcp.conn_remote (Channel.conn ch) in
  t.channels <- List.filter (fun c -> c != ch) t.channels;
  t.reconnects <- t.reconnects + 1;
  if Cio_telemetry.Trace.on () then
    Cio_telemetry.Trace.instant ~cat:Cio_telemetry.Kind.l5 "reconnect";
  connect t ~dst ~dst_port

let listen t ~port =
  { tcp_listener = enter_io t (fun () -> Tcp.listen (Stack.tcp t.stack) ~port); unit_ = t }

let accept l =
  let t = l.unit_ in
  match enter_io t (fun () -> Tcp.accept l.tcp_listener) with
  | None -> None
  | Some conn -> Some (make_channel t ~role:Session.Server ~conn)

(* One scheduling quantum of the confidential unit. The I/O compartment
   is modelled as asynchronously scheduled (its polling loop runs on its
   own logical core, like a kernel io-thread), so its continuous polling
   does not cross the L5 boundary; what costs a gate round trip is each
   *data handoff* between the app and the I/O domain, which is what the
   paper's latency argument is about. *)
let rec pump_io world = function
  | [] -> ()
  | ch :: rest ->
      if Channel.io_pump ch then Compartment.charge_crossing world;
      pump_io world rest

let poll t =
  (* Crash containment: with the I/O domain dead, its polling loop simply
     does not run. The app side keeps scheduling (and its data stays
     sealed); there is nothing below L5 to talk to until restart_io. *)
  if Compartment.domain_alive t.io then begin
    Stack.poll t.stack;
    pump_io t.world t.channels;
    List.iter Channel.app_pump t.channels
  end

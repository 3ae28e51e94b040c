(* Echo workloads: a dual-boundary unit and an echo peer on one netsim
   link, an honest host between them, a closed loop with [depth] messages
   in flight.

   Two assemblies of the same unit exist. [dual] is the library's
   [Dual.create]/[Dual.connect]/[Dual.poll]. [mirror] builds the same
   unit from the public pieces [Dual.create] wires up, so that the
   benchmark can wrap each layer's calls in spans; the traced run checks
   that both produce the same cycles, payloads and simulated time. *)

open Cio_util
open Cio_frame
open Cio_netsim
open Cio_tcpip
open Cio_tls
open Cio_compartment
open Cio_core
module Host_model = Cio_cionet.Host_model
module Driver = Cio_cionet.Driver
module Span = Perfbench.Span

let depth = 4
let templates = 16
let quantum_ns = 2_000L
let idle_limit = 100_000
let handshake_limit = 10_000
let ip_tee = Option.get (Addr.ipv4_of_string "10.0.0.1")
let ip_peer = Option.get (Addr.ipv4_of_string "10.0.0.2")
let mac_tee = Addr.mac_of_octets 0x02 0 0 0 0 1
let mac_peer = Addr.mac_of_octets 0x02 0 0 0 0 2
let psk = Bytes.of_string "benchmark-provisioned-psk-32-b!!"
let psk_id = "perfbench"
let port = 443

(* A unit under test, as the op loop sees it. *)
type sys = {
  send : bytes -> (unit, Session.error) result;
  recv : unit -> bytes option;
  pump : unit -> unit;
  error : unit -> Session.error option;
  established : unit -> bool;
  cycles : unit -> int;
  engine : Engine.t;
}

(* Counters a traced run reads before and after its window. *)
type probe = {
  frames : unit -> int;
  fresh_bufs : unit -> int;
  segments : unit -> int;
  retransmits : unit -> int;
  records : unit -> int;
  rx_polls : int ref;
  rx_hits : int ref;
  tx_backlog_max : int ref;
  host_pending_max : int ref;
}

(* The network half both assemblies share: engine, link and echo peer.
   The unit's generator is split off after the peer's, in the order the
   quickstart example uses. *)
let network ~seed =
  let engine = Engine.create () in
  let link = Link.create ~latency_ns:10_000L ~gbps:10.0 engine in
  let rng = Rng.create seed in
  let now () = Engine.now engine in
  let peer =
    Peer.create ~link ~endpoint:Link.B ~ip:ip_peer ~mac:mac_peer
      ~neighbors:[ (ip_tee, mac_tee) ] ~psk ~psk_id ~rng:(Rng.split rng) ~now ()
  in
  Peer.serve_echo peer ~port;
  (engine, link, peer, Rng.split rng, now)

let dual ~seed =
  let engine, link, peer, rng, now = network ~seed in
  let unit_ =
    Dual.create ~mac:mac_tee ~name:"perfbench-tee" ~ip:ip_tee ~neighbors:[ (ip_peer, mac_peer) ]
      ~psk ~psk_id ~rng ~now ()
  in
  let host =
    Host_model.create ~driver:(Dual.driver unit_) ~transmit:(fun frame ->
        Link.send link ~src:Link.A frame)
  in
  Link.attach link Link.A (fun frame -> Host_model.deliver_rx host frame);
  let ch = Dual.connect unit_ ~dst:ip_peer ~dst_port:port in
  let meter = Dual.meter unit_ in
  let region = Driver.region (Dual.driver unit_) in
  {
    send = Channel.send ch;
    recv = (fun () -> Channel.recv ch);
    pump =
      (fun () ->
        Dual.poll unit_;
        Host_model.poll host;
        Peer.poll peer;
        Engine.advance engine ~by:quantum_ns;
        Cio_mem.Region.clear_log region);
    error = (fun () -> Channel.error ch);
    established = (fun () -> Channel.is_established ch);
    cycles = (fun () -> Cost.total meter);
    engine;
  }

(* [Dual.create] + [Dual.connect] + [Dual.poll], step for step, with every
   layer call wrapped in a span of a tracer on the unit's meter, [layers]
   registered first so the tracer reports them in that order. *)
let mirror ~seed ~layers =
  let engine, link, peer, rng, now = network ~seed in
  let rx_polls = ref 0 and rx_hits = ref 0 in
  let tx_backlog_max = ref 0 and host_pending_max = ref 0 in
  (* Dual.create *)
  let model = Cost.default in
  let meter = Cost.meter () in
  let tracer = Span.create ~cycles:(fun () -> Cost.total meter) () in
  List.iter (fun l -> ignore (Span.layer tracer l)) layers;
  let layer = Span.layer tracer and span l f = Span.span tracer l f in
  let l_seal = layer "tls.seal" and l_open = layer "tls.open" and l_peer = layer "peer" in
  let l_io = layer "channel.io_pump" and l_stack = layer "tcpip.stack" in
  let l_tx = layer "cionet.driver_tx" and l_rx = layer "cionet.driver_rx" in
  let l_host = layer "cionet.host_model" and l_engine = layer "netsim.engine" in
  let world = Compartment.create ~model ~meter ~crossing:Compartment.Gate () in
  let app = Compartment.add_domain world ~name:"app" in
  let io = Compartment.add_domain world ~name:"iostack" in
  let config = { Cio_cionet.Config.default with Cio_cionet.Config.mac = mac_tee } in
  let driver = Driver.create ~model ~meter ~name:"perfbench-tee" config in
  let netif = Driver.to_netif driver in
  let netif =
    {
      netif with
      Netif.transmit = (fun frame -> span l_tx (fun () -> netif.Netif.transmit frame));
      poll =
        (fun () ->
          let r = span l_rx netif.Netif.poll in
          incr rx_polls;
          if r <> None then incr rx_hits;
          r);
    }
  in
  let stack =
    Stack.create ~model ~meter
      ~tx_burst:(fun frames -> span l_tx (fun () -> Driver.transmit_burst driver frames))
      ~recycle:(fun f -> span l_rx (fun () -> Driver.recycle driver f))
      ~netif ~ip:ip_tee ~neighbors:[ (ip_peer, mac_peer) ] ~now ~rng ()
  in
  let host =
    Host_model.create ~driver ~transmit:(fun frame -> Link.send link ~src:Link.A frame)
  in
  let note_host_pending () =
    host_pending_max := max !host_pending_max (Host_model.pending_rx_count host)
  in
  Link.attach link Link.A (fun frame ->
      span l_host (fun () -> Host_model.deliver_rx host frame);
      note_host_pending ());
  (* Dual.connect *)
  let enter_io f = Compartment.call world ~caller:app ~callee:io f in
  let conn = enter_io (fun () -> Tcp.connect (Stack.tcp stack) ~dst:ip_peer ~dst_port:port ()) in
  let session = Session.create ~model ~meter ~role:Session.Client ~psk ~psk_id ~rng () in
  let ch =
    Channel.create ~zero_copy_send:true ~copy_on_recv:true ~enter_io ~model ~meter ~session ~stack
      ~conn ()
  in
  ignore (Channel.start_handshake ch);
  let note_backlog () = tx_backlog_max := max !tx_backlog_max (Stack.tx_backlog stack) in
  let sys =
    {
      send = (fun m -> span l_seal (fun () -> Channel.send ch m));
      recv = (fun () -> Channel.recv ch);
      pump =
        (fun () ->
          (* Dual.poll *)
          if Compartment.domain_alive io then begin
            span l_stack (fun () -> Stack.poll stack);
            note_backlog ();
            span l_io (fun () -> if Channel.io_pump ch then Compartment.charge_crossing world);
            note_backlog ();
            span l_open (fun () -> Channel.app_pump ch)
          end;
          span l_host (fun () -> Host_model.poll host);
          note_host_pending ();
          span l_peer (fun () -> Peer.poll peer);
          span l_engine (fun () -> Engine.advance engine ~by:quantum_ns);
          Cio_mem.Region.clear_log (Driver.region driver));
      error = (fun () -> Channel.error ch);
      established = (fun () -> Channel.is_established ch);
      cycles = (fun () -> Cost.total meter);
      engine;
    }
  in
  let tcp = Stack.tcp stack in
  let probe =
    {
      frames = (fun () -> Driver.tx_frames driver + Driver.rx_frames driver);
      fresh_bufs = (fun () -> (Cio_mem.Bufpool.stats (Driver.pool driver)).Cio_mem.Bufpool.fresh);
      segments = (fun () -> Tcp.segments_in tcp + Tcp.segments_out tcp);
      retransmits = (fun () -> Tcp.retransmits tcp);
      records = (fun () -> Session.records_sent session + Session.records_received session);
      rx_polls;
      rx_hits;
      tx_backlog_max;
      host_pending_max;
    }
  in
  (sys, probe, tracer)

(* Message templates: random bytes from the seed, with the first eight
   bytes overwritten by the sequence number at send time. [templates]
   exceeds [depth], so a template is never restamped while in flight. *)
let payloads ~seed ~size =
  let rng = Rng.create (Int64.logxor seed 0x5eed_0ec0L) in
  Array.init templates (fun _ -> Rng.bytes rng size)

(* The closed loop. Each message is stamped, sent, and must come back
   byte for byte, in order. *)
let run sys ~payloads ~every ~stop =
  let seq_q = Array.make depth 0 and sent_at = Array.make depth 0 in
  let head = ref 0 and inflight = ref 0 and issued = ref 0 in
  let completed = ref 0 and failed = ref 0 and errors = ref [] in
  let latencies = Perfbench.Stats.samples () in
  let digest = ref 0l and fixed_cycles = ref (-1) and heap_top = ref 0 in
  let idle = ref 0 and issuing = ref true and stalled = ref false in
  let c0 = sys.cycles () in
  let w0 = Gc.minor_words () in
  let clock = Window.start ~every in
  let fail e =
    incr failed;
    Window.note_error errors e
  in
  while (!issuing || !inflight > 0) && not !stalled do
    while
      !issuing && !inflight < depth
      && begin
           if not (Window.may_issue stop ~issued:!issued ~completed:!completed) then
             issuing := false;
           !issuing
         end
    do
      let seq = !issued in
      let msg = payloads.(seq mod templates) in
      Bytes.set_int64_le msg 0 (Int64.of_int seq);
      let slot = (!head + !inflight) mod depth in
      seq_q.(slot) <- seq;
      sent_at.(slot) <- Window.elapsed clock;
      incr issued;
      match sys.send msg with
      | Ok () -> incr inflight
      | Error e ->
          fail ("send: " ^ Session.error_to_string e);
          issuing := false
    done;
    sys.pump ();
    let rec harvest () =
      match sys.recv () with
      | None -> ()
      | Some m ->
          let t = Window.elapsed clock in
          idle := 0;
          if !inflight = 0 then fail "echo with nothing in flight"
          else begin
            let seq = seq_q.(!head) in
            if Bytes.equal m payloads.(seq mod templates) then begin
              Perfbench.Stats.add latencies (t - sent_at.(!head));
              incr completed;
              digest := Crc32.update !digest m ~pos:0 ~len:(Bytes.length m);
              if !completed = Window.fixed_ops then begin
                fixed_cycles := sys.cycles () - c0;
                heap_top := Window.heap_top_words ()
              end
            end
            else fail (Printf.sprintf "echo %d came back altered" seq);
            head := (!head + 1) mod depth;
            decr inflight;
            Window.tick clock ~completed:!completed
          end;
          harvest ()
    in
    harvest ();
    (match sys.error () with
    | Some e ->
        fail ("channel: " ^ Session.error_to_string e);
        stalled := true
    | None -> ());
    incr idle;
    if !idle > idle_limit then begin
      Window.note_error errors "echo loop stalled";
      stalled := true
    end
  done;
  (* Whatever is still in flight after a stall never came back. *)
  failed := !failed + !inflight;
  let cycles = sys.cycles () - c0 in
  Window.finish clock ~w0 ~issued:!issued ~completed:!completed ~failed:!failed ~errors:!errors
    ~latencies ~cycles
    ~fixed_cycles:(if !fixed_cycles < 0 then cycles else !fixed_cycles)
    ~heap_top_words:(if !heap_top = 0 then Window.heap_top_words () else !heap_top)
    ~digest:!digest ~sim_end_ns:(Engine.now sys.engine)

let handshake sys =
  let rec go n =
    if sys.established () then true
    else if n = 0 || sys.error () <> None then false
    else begin
      sys.pump ();
      go (n - 1)
    end
  in
  if not (go handshake_limit) then failwith "echo: TLS handshake did not complete"

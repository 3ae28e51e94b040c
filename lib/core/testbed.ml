(* The dual-boundary testbed: the one place that wires the simulated
   world every end-to-end run shares — engine, link, echo peer, tap, and
   the dual-boundary unit with its host model on the confidential end.

   Seed order is part of every experiment's output: the peer takes the
   run's first Rng split, the confidential side the next ones. *)

open Cio_util
open Cio_frame
open Cio_netsim
module Trace = Cio_telemetry.Trace
module Kind_ = Cio_telemetry.Kind

let ip_tee = Addr.ipv4_of_octets 10 0 0 1
let ip_peer = Addr.ipv4_of_octets 10 0 0 2
let mac_tee = Addr.mac_of_octets 0x02 0 0 0 0 0x01
let mac_peer = Addr.mac_of_octets 0x02 0 0 0 0 0x02
let echo_port = 443
let psk = Bytes.of_string "attestation-provisioned-psk-32b!"
let neighbors_tee = [ (ip_peer, mac_peer) ]

type t = {
  engine : Engine.t;
  link : Link.t;
  peer : Peer.t;
  rng : Rng.t;
  tap : Cio_observe.Observe.t;
  name : string;
  psk_id : string;
}

let create ?(latency_ns = 5_000L) ?peer_codec ~name ~psk_id ~seed () =
  let engine = Engine.create () in
  (* Trace timestamps follow the run's virtual clock: same seed, same
     trace, byte for byte. *)
  if Trace.on () then Trace.set_clock (fun () -> Engine.now engine);
  let link = Link.create ~latency_ns ~gbps:10.0 engine in
  let rng = Rng.create seed in
  let peer =
    Peer.create ?frame_codec:peer_codec ~link ~endpoint:Link.B ~ip:ip_peer ~mac:mac_peer
      ~neighbors:[ (ip_tee, mac_tee) ] ~psk ~psk_id ~rng:(Rng.split rng)
      ~now:(fun () -> Engine.now engine)
      ()
  in
  Peer.serve_echo peer ~port:echo_port;
  (* Link-level metadata: what a host watching its NIC (or the wire)
     sees in every configuration. *)
  let tap = Cio_observe.Observe.create name in
  let base = if peer_codec = None then Kind_.frame else Kind_.tunnel in
  Link.set_transit_tap link
    (Some
       (fun ~time ~src frame ->
         let dir = match src with Link.A -> Kind_.dir_out | Link.B -> Kind_.dir_in in
         Cio_observe.Observe.record tap ~time ~kind:(Kind_.tap ~base ~dir)
           ~size:(Bytes.length frame)));
  { engine; link; peer; rng; tap; name; psk_id }

let now t () = Engine.now t.engine
let transmit t frame = Link.send t.link ~src:Link.A frame

let step t ~guest ~host ~by =
  guest ();
  host ();
  Peer.poll t.peer;
  Engine.advance t.engine ~by

type dual = { bed : t; unit_ : Dual.t; host : Cio_cionet.Host_model.t }

let attach_dual ?cionet_config ?overload bed =
  let unit_ =
    Dual.create ?cionet_config ?overload ~mac:mac_tee ~name:bed.name ~ip:ip_tee
      ~neighbors:neighbors_tee ~psk ~psk_id:bed.psk_id ~rng:(Rng.split bed.rng) ~now:(now bed) ()
  in
  let host = Cio_cionet.Host_model.create ~driver:(Dual.driver unit_) ~transmit:(transmit bed) in
  Link.attach bed.link Link.A (fun frame -> Cio_cionet.Host_model.deliver_rx host frame);
  { bed; unit_; host }

let connect d = Dual.connect d.unit_ ~dst:ip_peer ~dst_port:echo_port

(* [step] with the unit and its host model, called directly so that a
   quantum builds no closure. *)
let pump d ~by =
  Dual.poll d.unit_;
  Cio_cionet.Host_model.poll d.host;
  Peer.poll d.bed.peer;
  Engine.advance d.bed.engine ~by

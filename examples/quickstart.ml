(* Quickstart: one confidential echo round trip through the full dual
   boundary — safe L2 ring, quarantined TCP/IP compartment, mandatory TLS
   at L5 — against a plain remote peer on the simulated network.

     dune exec examples/quickstart.exe
*)

open Cio_core
open Cio_frame
open Cio_netsim
open Cio_util

let () =
  (* 1. A simulated network: one link between the confidential host (A)
     and the remote peer (B). *)
  let engine = Engine.create () in
  let link = Link.create ~latency_ns:10_000L ~gbps:10.0 engine in
  let rng = Rng.create 2026L in
  let now () = Engine.now engine in

  let ip_tee = Option.get (Addr.ipv4_of_string "10.0.0.1") in
  let ip_peer = Option.get (Addr.ipv4_of_string "10.0.0.2") in
  let mac_tee = Addr.mac_of_octets 0x02 0 0 0 0 1 in
  let mac_peer = Addr.mac_of_octets 0x02 0 0 0 0 2 in

  (* The PSK stands in for an attestation-provisioned secret. *)
  let psk = Bytes.of_string "attestation-provisioned-psk-32b!" in

  (* 2. The remote peer: an ordinary TLS echo service. *)
  let peer =
    Peer.create ~link ~endpoint:Link.B ~ip:ip_peer ~mac:mac_peer
      ~neighbors:[ (ip_tee, mac_tee) ] ~psk ~psk_id:"quickstart" ~rng:(Rng.split rng) ~now ()
  in
  Peer.serve_echo peer ~port:443;

  (* 3. The confidential unit: cionet + compartmentalised stack + TLS. *)
  let unit_ =
    Dual.create ~mac:mac_tee ~name:"quickstart-tee" ~ip:ip_tee
      ~neighbors:[ (ip_peer, mac_peer) ] ~psk ~psk_id:"quickstart" ~rng:(Rng.split rng) ~now ()
  in

  (* 4. The untrusted host device model bridging the ring to the wire. *)
  let host =
    Cio_cionet.Host_model.create ~driver:(Dual.driver unit_)
      ~transmit:(fun frame -> Link.send link ~src:Link.A frame)
  in
  Link.attach link Link.A (fun frame -> Cio_cionet.Host_model.deliver_rx host frame);

  (* 5. Connect and echo. *)
  let channel = Dual.connect unit_ ~dst:ip_peer ~dst_port:443 in
  let pump () =
    Dual.poll unit_;
    Cio_cionet.Host_model.poll host;
    Peer.poll peer;
    Engine.advance engine ~by:2_000L
  in
  let rec wait_for pred n =
    if pred () then true
    else if n = 0 then false
    else begin
      pump ();
      wait_for pred (n - 1)
    end
  in
  if not (wait_for (fun () -> Channel.is_established channel) 5_000) then begin
    prerr_endline "handshake did not complete";
    exit 1
  end;
  Fmt.pr "TLS channel established through the dual boundary.@.";

  let message = Bytes.of_string "hello, confidential world" in
  (match Channel.send channel message with
  | Ok () -> ()
  | Error e -> failwith (Cio_tls.Session.error_to_string e));
  let echo = ref None in
  ignore
    (wait_for
       (fun () ->
         (match Channel.recv channel with Some m -> echo := Some m | None -> ());
         !echo <> None)
       5_000);
  (match !echo with
  | Some m when Bytes.equal m message -> Fmt.pr "echo received intact: %S@." (Bytes.to_string m)
  | Some m ->
      Fmt.pr "echo CORRUPTED: %S@." (Bytes.to_string m);
      exit 1
  | None ->
      Fmt.pr "no echo received@.";
      exit 1);

  (* 6. Self-healing: stall the host device mid-session. The driver
     watchdog notices the missed deadline, throws the rings away
     (generation bump — the interface is stateless, so nothing needs to
     be renegotiated with anyone), and traffic resumes. *)
  let watchdog =
    Cio_cionet.Watchdog.create ~poll_budget:200 (Dual.driver unit_)
  in
  Cio_cionet.Host_model.inject host (Cio_cionet.Host_model.Stall 600);
  let message2 = Bytes.of_string "hello again, after the host stalled" in
  (match Channel.send channel message2 with
  | Ok () -> ()
  | Error e -> failwith (Cio_tls.Session.error_to_string e));
  let echo2 = ref None in
  ignore
    (wait_for
       (fun () ->
         Cio_cionet.Watchdog.tick watchdog ~expecting_rx:true;
         (match Channel.recv channel with Some m -> echo2 := Some m | None -> ());
         !echo2 <> None)
       (* The reset discards the in-flight segment with the rest of the ring;
          TCP's retransmission timer (200 ms simulated) replays it. *)
       200_000);
  (match !echo2 with
  | Some m when Bytes.equal m message2 ->
      Fmt.pr "host stalled; watchdog reset the rings; echo received intact: %S@."
        (Bytes.to_string m)
  | Some m ->
      Fmt.pr "echo CORRUPTED: %S@." (Bytes.to_string m);
      exit 1
  | None ->
      Fmt.pr "no echo after stall@.";
      exit 1);

  (* 7. What it cost, and what the host saw. *)
  let meter = Dual.meter unit_ in
  Fmt.pr "TEE work: %d cycles (%a)@." (Cost.total meter) Cost.pp_meter meter;
  Fmt.pr "L5 compartment handoffs: %d@." (Dual.crossings unit_);
  Fmt.pr "recovery: stalls detected %d, resets %d, reconnects %d@."
    (Cio_cionet.Watchdog.stalls_detected watchdog)
    (Cio_cionet.Driver.generation (Dual.driver unit_))
    (Dual.reconnects unit_);
  Fmt.pr "frames on the wire: %d out, %d in — all the host ever observed.@."
    (Link.frames_sent link ~src:Link.A)
    (Link.frames_sent link ~src:Link.B)

(* Live migration by hot swap (§3.2 / E12): a confidential unit streams
   echoes while its device is ripped out and replaced mid-session. The
   zero-negotiation interface has no state to transfer; the old shared
   region is revoked wholesale; TCP absorbs the cable pull. A wire trace
   around the swap shows the host's view.

     dune exec examples/migration_demo.exe
*)

open Cio_core
open Cio_frame
open Cio_netsim
open Cio_util

let () =
  let engine = Engine.create () in
  let link = Link.create ~latency_ns:8_000L ~gbps:10.0 engine in
  let rng = Rng.create 1207L in
  let now () = Engine.now engine in
  let ip_tee = Option.get (Addr.ipv4_of_string "10.0.0.1") in
  let ip_peer = Option.get (Addr.ipv4_of_string "10.0.0.2") in
  let mac_tee = Addr.mac_of_octets 2 0 0 0 0 1 in
  let mac_peer = Addr.mac_of_octets 2 0 0 0 0 2 in
  let psk = Bytes.of_string "migration-demo-psk-32-bytes-long" in
  let peer =
    Peer.create ~link ~endpoint:Link.B ~ip:ip_peer ~mac:mac_peer ~neighbors:[ (ip_tee, mac_tee) ]
      ~psk ~psk_id:"mig" ~rng:(Rng.split rng) ~now ()
  in
  Peer.serve_echo peer ~port:443;
  let unit_ =
    Dual.create ~mac:mac_tee ~name:"migratable" ~ip:ip_tee ~neighbors:[ (ip_peer, mac_peer) ]
      ~psk ~psk_id:"mig" ~rng:(Rng.split rng) ~now ()
  in
  let host =
    Cio_cionet.Host_model.create ~driver:(Dual.driver unit_)
      ~transmit:(fun f -> Link.send link ~src:Link.A f)
  in
  Link.attach link Link.A (fun f -> Cio_cionet.Host_model.deliver_rx host f);

  (* Wire trace: armed around the swap. *)
  let tracing = ref false in
  Link.set_transit_tap link
    (Some
       (fun ~time ~src frame ->
         if !tracing then
           Fmt.pr "    %8Ld ns %s  %s@." time
             (match src with Link.A -> "tee->net" | Link.B -> "net->tee")
             (Pretty.frame_summary frame)));

  let ch = Dual.connect unit_ ~dst:ip_peer ~dst_port:443 in
  let pump () =
    Dual.poll unit_;
    Cio_cionet.Host_model.poll host;
    Peer.poll peer;
    Engine.advance engine ~by:5_000L
  in
  let rec until pred n = pred () || (n > 0 && (pump (); until pred (n - 1))) in
  if not (until (fun () -> Channel.is_established ch) 5000) then failwith "no handshake";
  Fmt.pr "session established; streaming echoes...@.";

  let echoes = ref 0 and sent = ref 0 and swapped = ref false in
  let target = 24 and echo = Bytes.create 16 in
  let finished =
    until
      (fun () ->
        (if !sent < target && !sent - !echoes < 2 then
           match Channel.send ch (Bytes.of_string (Printf.sprintf "echo-%02d" !sent)) with
           | Ok () -> incr sent
           | Error _ -> ());
        if Channel.recv_into ch echo >= 0 then incr echoes;
        if !echoes = 12 && not !swapped then begin
          swapped := true;
          Fmt.pr "@.>>> hot swap at echo 12: revoking the old device wholesale <<<@.";
          tracing := true;
          Cio_cionet.Driver.hot_swap (Dual.driver unit_);
          Fmt.pr "    device generation: %d; old region unmapped from the host@."
            (Cio_cionet.Driver.generation (Dual.driver unit_))
        end;
        if !echoes = 14 && !tracing then begin
          tracing := false;
          Fmt.pr "    (trace off)@.@."
        end;
        !echoes >= target)
      400_000
  in
  Fmt.pr "completed %d/%d echoes across the swap; session error: %s@." !echoes target
    (match Channel.error ch with
    | None -> "none"
    | Some e -> Cio_tls.Session.error_to_string e);
  Fmt.pr "nothing was negotiated or transferred: no feature bits, no ring state,@.";
  Fmt.pr "no sequence numbers — the §3.2 zero-negotiation principle is what makes@.";
  Fmt.pr "migration this boring. (finished=%b)@." finished;
  if not finished then exit 1

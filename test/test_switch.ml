(* Learning-switch tests plus a multi-client topology: one dual-boundary
   confidential unit serving three remote clients through the switch. *)

open Cio_netsim
open Cio_core
open Cio_util
open Cio_frame

let frame ~dst ~src payload =
  Frame_oracle.Ethernet.build { Frame_oracle.Ethernet.dst; src; ethertype = Ethernet.Ipv4; payload }

let mac i = Addr.mac_of_octets 2 0 0 0 0 i

let test_flood_then_learn () =
  let engine = Engine.create () in
  let sw = Switch.create ~ports:3 engine in
  let got = Array.make 3 0 in
  for p = 0 to 2 do
    Switch.attach sw ~port:p (fun _ -> got.(p) <- got.(p) + 1)
  done;
  (* Unknown destination: flooded to the two other ports. *)
  Switch.ingress sw ~port:0 (frame ~dst:(mac 9) ~src:(mac 1) (Bytes.make 50 'x'));
  Engine.run engine;
  Alcotest.(check (list int)) "flooded" [ 0; 1; 1 ] (Array.to_list got);
  Alcotest.(check int) "flood counted" 1 (Switch.flooded sw);
  (* Port 1 replies: the switch has learned mac 1 on port 0. *)
  Switch.ingress sw ~port:1 (frame ~dst:(mac 1) ~src:(mac 9) (Bytes.make 50 'y'));
  Engine.run engine;
  Alcotest.(check (list int)) "unicast to learned port" [ 1; 1; 1 ] (Array.to_list got);
  Alcotest.(check (option int)) "mac 9 learned on port 1" (Some 1) (Switch.learned_port sw ~mac:(mac 9))

let test_broadcast () =
  let engine = Engine.create () in
  let sw = Switch.create ~ports:4 engine in
  let got = Array.make 4 0 and bufs = ref [] in
  for p = 0 to 3 do
    Switch.attach sw ~port:p (fun f ->
        got.(p) <- got.(p) + 1;
        bufs := f :: !bufs)
  done;
  let sent = frame ~dst:Addr.mac_broadcast ~src:(mac 2) (Bytes.make 30 'b') in
  Switch.ingress sw ~port:2 (Bytes.copy sent);
  Engine.run engine;
  Alcotest.(check (list int)) "all but ingress" [ 1; 1; 0; 1 ] (Array.to_list got);
  (* Each receiver owns what it gets, so no two share a buffer. *)
  List.iter
    (fun f ->
      Helpers.check_bytes "intact" sent f;
      Alcotest.(check int) "its own buffer" 1 (List.length (List.filter (( == ) f) !bufs)))
    !bufs

let test_same_port_filtered () =
  let engine = Engine.create () in
  let sw = Switch.create ~ports:2 engine in
  let got = ref 0 in
  Switch.attach sw ~port:1 (fun _ -> incr got);
  (* Learn mac 5 on port 0, then send *to* mac 5 from port 0: filtered. *)
  Switch.ingress sw ~port:0 (frame ~dst:(mac 9) ~src:(mac 5) (Bytes.make 20 'x'));
  Engine.run engine;
  let before = !got in
  Switch.ingress sw ~port:0 (frame ~dst:(mac 5) ~src:(mac 6) (Bytes.make 20 'y'));
  Engine.run engine;
  Alcotest.(check int) "hairpin filtered" before !got

let test_short_frame_dropped () =
  let engine = Engine.create () in
  let sw = Switch.create ~ports:2 engine in
  let got = ref 0 in
  Switch.attach sw ~port:1 (fun _ -> incr got);
  Switch.ingress sw ~port:0 (Bytes.make 4 'x');
  Engine.run engine;
  Alcotest.(check int) "runt dropped" 0 !got

(* --- the multi-client topology ------------------------------------------ *)

let test_one_unit_three_clients () =
  let engine = Engine.create () in
  let sw = Switch.create ~latency_ns:5_000L ~ports:4 engine in
  let rng = Rng.create 314L in
  let now () = Engine.now engine in
  let psk = Bytes.of_string "switch-topology-psk-32-bytes-ok!" in
  let ip i = Addr.ipv4_of_octets 10 0 0 i in
  (* The confidential unit on port 0. *)
  let server_mac = mac 1 in
  let neighbors = List.map (fun i -> (ip i, mac i)) [ 2; 3; 4 ] in
  let unit_ =
    Dual.create ~mac:server_mac ~name:"sw-tee" ~ip:(ip 1) ~neighbors ~psk ~psk_id:"sw"
      ~rng:(Rng.split rng) ~now ()
  in
  let sw_tx, _ = Switch.endpoint sw ~port:0 in
  let host = Cio_cionet.Host_model.create ~driver:(Dual.driver unit_) ~transmit:sw_tx in
  Switch.attach sw ~port:0 (fun f -> Cio_cionet.Host_model.deliver_rx host f);
  let listener = Dual.listen unit_ ~port:443 in
  let served = ref [] in
  (* Three clients on ports 1..3. *)
  let clients =
    List.map
      (fun i ->
        let transmit, poll = Switch.endpoint sw ~port:(i - 1) in
        let netif = { Cio_tcpip.Netif.mac = mac i; mtu = 1500; transmit; poll } in
        let peer =
          Peer.create_with_netif ~netif ~ip:(ip i) ~neighbors:[ (ip 1, server_mac) ] ~psk
            ~psk_id:"sw" ~rng:(Rng.split rng) ~now ()
        in
        (i, peer, Peer.connect peer ~dst:(ip 1) ~dst_port:443))
      [ 2; 3; 4 ]
  in
  let pump () =
    Dual.poll unit_;
    (match Dual.accept listener with Some ch -> served := ch :: !served | None -> ());
    (* Echo service on the unit's side. *)
    List.iter
      (fun ch ->
        let rec echo () =
          match Channel.recv ch with
          | Some m ->
              ignore (Channel.send ch m);
              echo ()
          | None -> ()
        in
        echo ())
      !served;
    Cio_cionet.Host_model.poll host;
    List.iter (fun (_, p, _) -> Peer.poll p) clients;
    Engine.advance engine ~by:2_000L
  in
  let rec until pred n = pred () || (n > 0 && (pump (); until pred (n - 1))) in
  Alcotest.(check bool) "all three clients established" true
    (until (fun () -> List.for_all (fun (_, _, ch) -> Channel.is_established ch) clients) 80_000);
  List.iter
    (fun (i, _, ch) ->
      match Channel.send ch (Bytes.of_string (Printf.sprintf "from-client-%d" i)) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Cio_tls.Session.error_to_string e))
    clients;
  Alcotest.(check bool) "all echoed back" true
    (until
       (fun () -> List.for_all (fun (_, _, ch) -> Channel.pending ch > 0) clients)
       80_000);
  List.iter
    (fun (i, _, ch) ->
      match Channel.recv ch with
      | Some m ->
          Helpers.check_bytes "echo demuxed to the right client"
            (Bytes.of_string (Printf.sprintf "from-client-%d" i))
            m
      | None -> Alcotest.fail "missing echo")
    clients;
  Alcotest.(check int) "unit served three channels" 3 (List.length !served);
  Alcotest.(check bool) "switch learned all macs" true
    (List.for_all (fun i -> Switch.learned_port sw ~mac:(mac i) <> None) [ 1; 2; 3; 4 ])

let suite =
  [
    Alcotest.test_case "flood then learn" `Quick test_flood_then_learn;
    Alcotest.test_case "broadcast" `Quick test_broadcast;
    Alcotest.test_case "hairpin filtered" `Quick test_same_port_filtered;
    Alcotest.test_case "runt frames dropped" `Quick test_short_frame_dropped;
    Alcotest.test_case "one unit, three clients" `Slow test_one_unit_three_clients;
  ]

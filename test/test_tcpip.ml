(* TCP/IP stack tests over loopback netifs, including adversarial frame
   handling. *)

open Cio_tcpip
module H = Helpers

let test_handshake () =
  let _pair, client, server = H.connected_pair () in
  Alcotest.(check string) "client" "ESTABLISHED" (Tcp.state_name (Tcp.conn_state client));
  Alcotest.(check string) "server" "ESTABLISHED" (Tcp.state_name (Tcp.conn_state server))

let test_small_transfer () =
  let pair, client, server = H.connected_pair () in
  let data = Bytes.of_string "hello over tcp" in
  let got =
    H.transfer pair ~src_tcp:(Stack.tcp pair.H.stack_a) ~src_conn:client
      ~dst_tcp:(Stack.tcp pair.H.stack_b) ~dst_conn:server data
  in
  H.check_bytes "delivered" data got

let test_large_transfer_exceeds_window () =
  let pair, client, server = H.connected_pair () in
  (* 300 KB: far beyond both cwnd and the advertised window, forcing
     many round trips, segmentation and window updates. *)
  let data = Bytes.init 300_000 (fun i -> Char.chr ((i * 31) land 0xFF)) in
  let got =
    H.transfer pair ~src_tcp:(Stack.tcp pair.H.stack_a) ~src_conn:client
      ~dst_tcp:(Stack.tcp pair.H.stack_b) ~dst_conn:server data
  in
  H.check_bytes "byte-exact" data got

let test_bidirectional_transfer () =
  let pair, client, server = H.connected_pair () in
  let a2b = Bytes.make 20_000 'u' and b2a = Bytes.make 15_000 'd' in
  let tcp_a = Stack.tcp pair.H.stack_a and tcp_b = Stack.tcp pair.H.stack_b in
  let sent_a = ref 0 and sent_b = ref 0 in
  let recv_a = Buffer.create 1024 and recv_b = Buffer.create 1024 in
  let done_ () = Buffer.length recv_b >= 20_000 && Buffer.length recv_a >= 15_000 in
  let ok =
    H.run_until pair (fun () ->
        if !sent_a < 20_000 then begin
          sent_a := !sent_a + Tcp.send tcp_a client (Bytes.sub a2b !sent_a (min 4096 (20_000 - !sent_a)));
          Tcp.flush tcp_a client
        end;
        if !sent_b < 15_000 then begin
          sent_b := !sent_b + Tcp.send tcp_b server (Bytes.sub b2a !sent_b (min 4096 (15_000 - !sent_b)));
          Tcp.flush tcp_b server
        end;
        Buffer.add_bytes recv_b (Tcp.recv tcp_b server ~max:65536);
        Buffer.add_bytes recv_a (Tcp.recv tcp_a client ~max:65536);
        done_ ())
  in
  Alcotest.(check bool) "completed" true ok;
  H.check_bytes "a->b" a2b (Buffer.to_bytes recv_b);
  H.check_bytes "b->a" b2a (Buffer.to_bytes recv_a)

let test_graceful_close () =
  let pair, client, server = H.connected_pair () in
  let tcp_a = Stack.tcp pair.H.stack_a and tcp_b = Stack.tcp pair.H.stack_b in
  Tcp.close tcp_a client;
  let ok =
    H.run_until pair (fun () -> Tcp.eof server && Tcp.conn_state client = Tcp.Fin_wait_2)
  in
  Alcotest.(check bool) "server sees eof, client half-closed" true ok;
  Alcotest.(check string) "half-closed client" "FIN-WAIT-2" (Tcp.state_name (Tcp.conn_state client));
  Alcotest.(check string) "server close-wait" "CLOSE-WAIT" (Tcp.state_name (Tcp.conn_state server));
  Tcp.close tcp_b server;
  let ok =
    H.run_until pair (fun () ->
        Tcp.conn_state server = Tcp.Closed
        && (Tcp.conn_state client = Tcp.Time_wait || Tcp.conn_state client = Tcp.Closed))
  in
  Alcotest.(check bool) "full close" true ok

let test_connection_refused () =
  let pair = H.make_stack_pair () in
  let tcp_a = Stack.tcp pair.H.stack_a in
  let conn = Tcp.connect tcp_a ~dst:H.ip_b ~dst_port:9999 () in
  let ok = H.run_until pair (fun () -> Tcp.conn_state conn = Tcp.Closed) in
  Alcotest.(check bool) "closed by RST" true ok;
  Alcotest.(check (option string)) "refused" (Some "connection refused") (Tcp.conn_error conn)

(* A refused connection is over: no SYN goes out after the RST, its
   error stays "connection refused" however long the clock runs, and the
   table does not keep it (200 refused connects leave the Tcp.t about
   the size one did). *)
let test_refused_connection_released () =
  let pair = H.make_stack_pair () in
  let tcp_a = Stack.tcp pair.H.stack_a in
  let refuse () =
    let conn = Tcp.connect tcp_a ~dst:H.ip_b ~dst_port:9999 () in
    Alcotest.(check bool) "closed by RST" true
      (H.run_until pair (fun () -> Tcp.conn_state conn = Tcp.Closed));
    H.step pair;
    conn
  in
  let conn = refuse () in
  let sent = Tcp.segments_out tcp_a and words = Obj.reachable_words (Obj.repr tcp_a) in
  (* Past every retransmission deadline: 200 ms doubling over 8 tries. *)
  for _ = 1 to 60 do
    H.step ~ms:1000 pair
  done;
  Alcotest.(check int) "no SYN after the RST" sent (Tcp.segments_out tcp_a);
  Alcotest.(check (option string)) "still refused" (Some "connection refused") (Tcp.conn_error conn);
  for _ = 1 to 199 do
    ignore (refuse ())
  done;
  let grown = Obj.reachable_words (Obj.repr tcp_a) in
  Alcotest.(check bool)
    (Printf.sprintf "table released: %d words after 200 refusals, %d after one" grown words)
    true
    (grown <= 2 * words)

let test_data_after_close_rejected () =
  let pair, client, _server = H.connected_pair () in
  let tcp_a = Stack.tcp pair.H.stack_a in
  Tcp.close tcp_a client;
  H.step pair;
  Alcotest.(check int) "send after close returns 0" 0 (Tcp.send tcp_a client (Bytes.of_string "x"))

let test_listener_accept_queue () =
  let pair = H.make_stack_pair () in
  let tcp_a = Stack.tcp pair.H.stack_a and tcp_b = Stack.tcp pair.H.stack_b in
  let listener = Tcp.listen tcp_b ~port:80 in
  let c1 = Tcp.connect tcp_a ~dst:H.ip_b ~dst_port:80 () in
  let c2 = Tcp.connect tcp_a ~dst:H.ip_b ~dst_port:80 () in
  let accepted = ref [] in
  let ok =
    H.run_until pair (fun () ->
        (match Tcp.accept listener with Some c -> accepted := c :: !accepted | None -> ());
        List.length !accepted = 2
        && Tcp.conn_state c1 = Tcp.Established
        && Tcp.conn_state c2 = Tcp.Established)
  in
  Alcotest.(check bool) "both accepted" true ok

let test_duplicate_listen_rejected () =
  let pair = H.make_stack_pair () in
  let tcp_b = Stack.tcp pair.H.stack_b in
  ignore (Tcp.listen tcp_b ~port:81);
  Alcotest.check_raises "double bind" (Invalid_argument "Tcp.listen: port already bound") (fun () ->
      ignore (Tcp.listen tcp_b ~port:81))

(* A lossy/reordering netif wrapper for robustness tests. With [burst]
   A's stack coalesces TX through the same wrapper (a burst link copies
   or drops each frame during the call, so it cannot reorder). *)
let lossy_pair ?(burst = false) ~seed ~drop ~dup ~reorder () =
  assert (not (burst && reorder > 0.0));
  let nif_a, nif_b = Netif.loopback_pair ~mac_a:H.mac_a ~mac_b:H.mac_b ~mtu:1500 in
  let rng = Cio_util.Rng.create seed in
  let held = ref None in
  let lossy_transmit frame =
    if Cio_util.Rng.float rng < drop then ()
    else if Cio_util.Rng.float rng < reorder then begin
      match !held with
      | None -> held := Some frame
      | Some h ->
          held := None;
          nif_a.Netif.transmit frame;
          nif_a.Netif.transmit h
    end
    else begin
      nif_a.Netif.transmit frame;
      if Cio_util.Rng.float rng < dup then nif_a.Netif.transmit frame
    end
  in
  let nif_a' = { nif_a with Netif.transmit = lossy_transmit } in
  let clock = ref 0L in
  let now () = !clock in
  let tx_burst =
    if burst then
      Some
        (fun frames ->
          Array.iter lossy_transmit frames;
          Array.length frames)
    else None
  in
  let stack_a =
    Stack.create ?tx_burst ~netif:nif_a' ~ip:H.ip_a ~neighbors:[ (H.ip_b, H.mac_b) ] ~now
      ~rng:(Cio_util.Rng.split rng) ()
  in
  let stack_b =
    Stack.create ~netif:nif_b ~ip:H.ip_b ~neighbors:[ (H.ip_a, H.mac_a) ] ~now
      ~rng:(Cio_util.Rng.split rng) ()
  in
  { H.stack_a; stack_b; clock }

(* Push 60 kB from A to B over a lossy pair; returns A's retransmits. *)
let transfer_under_impairment ?burst ~seed ~drop ~dup ~reorder () =
  let pair = lossy_pair ?burst ~seed ~drop ~dup ~reorder () in
  let tcp_a = Stack.tcp pair.H.stack_a and tcp_b = Stack.tcp pair.H.stack_b in
  let listener = Tcp.listen tcp_b ~port:90 in
  let client = Tcp.connect tcp_a ~dst:H.ip_b ~dst_port:90 () in
  let server = ref None in
  let ok =
    H.run_until ~max_steps:30_000 pair (fun () ->
        (match !server with None -> server := Tcp.accept listener | Some _ -> ());
        Tcp.conn_state client = Tcp.Established && !server <> None)
  in
  Alcotest.(check bool) "handshake survives impairment" true ok;
  let server = Option.get !server in
  let data = Bytes.init 60_000 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let sent = ref 0 in
  let received = Buffer.create 60_000 in
  let ok =
    H.run_until ~max_steps:30_000 pair (fun () ->
        if !sent < 60_000 then begin
          sent := !sent + Tcp.send tcp_a client (Bytes.sub data !sent (min 4096 (60_000 - !sent)));
          Tcp.flush tcp_a client
        end;
        Buffer.add_bytes received (Tcp.recv tcp_b server ~max:65536);
        Buffer.length received >= 60_000)
  in
  Alcotest.(check bool) "transfer completes" true ok;
  H.check_bytes "byte-exact despite impairment" data (Buffer.to_bytes received);
  Tcp.retransmits tcp_a

let test_retransmission_on_loss () =
  ignore (transfer_under_impairment ~seed:11L ~drop:0.05 ~dup:0.0 ~reorder:0.0 ())

let test_duplication_tolerated () =
  ignore (transfer_under_impairment ~seed:12L ~drop:0.0 ~dup:0.1 ~reorder:0.0 ())

let test_reordering_reassembled () =
  ignore (transfer_under_impairment ~seed:13L ~drop:0.0 ~dup:0.0 ~reorder:0.2 ())

let test_combined_impairment () =
  ignore (transfer_under_impairment ~seed:14L ~drop:0.03 ~dup:0.05 ~reorder:0.1 ())

(* Retransmissions are rebuilt from the send queue: a burst link only
   borrows each frame, and the TX pool hands the dropped original's
   buffer to a later segment as soon as the burst returns. *)
let test_retransmit_after_tx_buffer_reuse () =
  let retransmits =
    transfer_under_impairment ~burst:true ~seed:15L ~drop:0.05 ~dup:0.0 ~reorder:0.0 ()
  in
  Alcotest.(check bool) "lost segments were retransmitted" true (retransmits > 0)

(* --- RX buffer ownership ------------------------------------------------ *)

(* The stack hands every RX frame back through [recycle] once handled,
   and a driver then reuses the buffer. B's stack here scribbles over
   each returned frame, so anything still reading a frame after
   [handle_frame] reads garbage. [transmit] wraps A's netif. *)
let reuse_pair ?(transmit = fun send frame -> send frame) () =
  let nif_a, nif_b = Netif.loopback_pair ~mac_a:H.mac_a ~mac_b:H.mac_b ~mtu:1500 in
  let clock = ref 0L in
  let now () = !clock in
  let rng = Cio_util.Rng.create 16L in
  let stack_a =
    Stack.create
      ~netif:{ nif_a with Netif.transmit = transmit nif_a.Netif.transmit }
      ~ip:H.ip_a ~neighbors:[ (H.ip_b, H.mac_b) ] ~now ~rng:(Cio_util.Rng.split rng) ()
  in
  let stack_b =
    Stack.create
      ~recycle:(fun frame -> Bytes.fill frame 0 (Bytes.length frame) '\xEE')
      ~netif:nif_b ~ip:H.ip_b ~neighbors:[ (H.ip_a, H.mac_a) ] ~now ~rng:(Cio_util.Rng.split rng) ()
  in
  { H.stack_a; stack_b; clock }

let test_ooo_stash_survives_rx_reuse () =
  (* Hold the first full-size data frame back until the next has passed:
     B stashes the second segment, then recycles its frame. *)
  let held = ref None and swapped = ref false in
  let transmit send frame =
    if !swapped || Bytes.length frame < 1000 then send frame
    else
      match !held with
      | None -> held := Some frame
      | Some h ->
          swapped := true;
          send frame;
          send h
  in
  let pair = reuse_pair ~transmit () in
  let client, server = H.connect pair in
  let data = Bytes.init 4000 (fun i -> Char.chr ((i * 13) land 0xFF)) in
  let got =
    H.transfer pair ~src_tcp:(Stack.tcp pair.H.stack_a) ~src_conn:client
      ~dst_tcp:(Stack.tcp pair.H.stack_b) ~dst_conn:server data
  in
  Alcotest.(check bool) "second segment overtook the first" true !swapped;
  H.check_bytes "stashed bytes drained intact" data got

(* Without [recycle] a handled RX frame goes into the stack's own TX
   pool: B answers in buffers it received, none of them still queued. *)
let test_rx_frames_refill_tx_pool () =
  let nif_a, nif_b = Netif.loopback_pair ~mac_a:H.mac_a ~mac_b:H.mac_b ~mtu:1500 in
  let received = ref [] and reused = ref 0 in
  let nif_b =
    {
      nif_b with
      Netif.poll =
        (fun () ->
          let r = nif_b.Netif.poll () in
          Option.iter (fun f -> received := f :: !received) r;
          r);
      transmit =
        (fun f ->
          if List.memq f !received then incr reused;
          nif_b.Netif.transmit f);
    }
  in
  let clock = ref 0L in
  let now () = !clock in
  let rng = Cio_util.Rng.create 17L in
  let mk netif ip peer_ip peer_mac =
    Stack.create ~netif ~ip ~neighbors:[ (peer_ip, peer_mac) ] ~now ~rng:(Cio_util.Rng.split rng) ()
  in
  let pair =
    { H.stack_a = mk nif_a H.ip_a H.ip_b H.mac_b; stack_b = mk nif_b H.ip_b H.ip_a H.mac_a; clock }
  in
  let client, server = H.connect pair in
  let data = Bytes.init 6000 (fun i -> Char.chr ((i * 5) land 0xFF)) in
  let got =
    H.transfer pair ~src_tcp:(Stack.tcp pair.H.stack_a) ~src_conn:client
      ~dst_tcp:(Stack.tcp pair.H.stack_b) ~dst_conn:server data
  in
  H.check_bytes "transfer intact" data got;
  Alcotest.(check bool) "B transmitted in received buffers" true (!reused > 0)

(* UDP (IPv4 protocol 17) has no decoder in the stack: a datagram to any
   port is dropped at IPv4, before any transport parse. *)
let test_udp_unbound_port_dropped () =
  let pair = H.make_stack_pair () in
  let datagram = Bytes.make 12 'x' in
  let packet =
    Frame_oracle.Ipv4.build
      {
        Frame_oracle.Ipv4.src = Frame_oracle.of_addr H.ip_a;
        dst = Frame_oracle.of_addr H.ip_b;
        protocol = Cio_frame.Ipv4.Unknown 17;
        ttl = 64;
        payload = datagram;
      }
  in
  let frame =
    Frame_oracle.Ethernet.build
      {
        Frame_oracle.Ethernet.dst = H.mac_b;
        src = H.mac_a;
        ethertype = Cio_frame.Ethernet.Ipv4;
        payload = packet;
      }
  in
  let counters = Stack.counters pair.H.stack_b in
  let dropped = counters.Stack.dropped in
  Stack.handle_frame pair.H.stack_b frame;
  Alcotest.(check string) "drop reason" "ipv4: unhandled protocol" counters.Stack.last_drop_reason;
  Alcotest.(check int) "one more dropped" (dropped + 1) counters.Stack.dropped

let test_stack_ignores_foreign_frames () =
  let pair = H.make_stack_pair () in
  (* A frame addressed to a different MAC must be dropped at Ethernet. *)
  let foreign =
    Frame_oracle.Ethernet.build
      {
        Frame_oracle.Ethernet.dst = Cio_frame.Addr.mac_of_octets 9 9 9 9 9 9;
        src = H.mac_a;
        ethertype = Cio_frame.Ethernet.Ipv4;
        payload = Bytes.make 30 'x';
      }
  in
  Stack.handle_frame pair.H.stack_b foreign;
  Alcotest.(check string) "dropped" "ethernet: not for us"
    (Stack.counters pair.H.stack_b).Stack.last_drop_reason

let test_stack_counts_garbage () =
  let pair = H.make_stack_pair () in
  Stack.handle_frame pair.H.stack_b (Bytes.make 5 '\x00');
  Alcotest.(check int) "counted" 1 (Stack.counters pair.H.stack_b).Stack.dropped

let test_stack_meter_charges () =
  let pair, client, server = H.connected_pair () in
  ignore client;
  ignore server;
  let m = Stack.meter pair.H.stack_a in
  Alcotest.(check bool) "stack work metered" (Cio_util.Cost.cycles_of m Cio_util.Cost.Stack > 0) true

let test_ten_concurrent_connections () =
  let pair = H.make_stack_pair () in
  let tcp_a = Stack.tcp pair.H.stack_a and tcp_b = Stack.tcp pair.H.stack_b in
  let listener = Tcp.listen tcp_b ~port:7000 in
  let clients = List.init 10 (fun _ -> Tcp.connect tcp_a ~dst:H.ip_b ~dst_port:7000 ()) in
  let servers = ref [] in
  let ok =
    H.run_until pair (fun () ->
        (match Tcp.accept listener with Some c -> servers := c :: !servers | None -> ());
        List.length !servers = 10
        && List.for_all (fun c -> Tcp.conn_state c = Tcp.Established) clients)
  in
  Alcotest.(check bool) "all ten established" true ok;
  (* Each client sends a distinct message; each must land on exactly one
     server connection, and all ten must arrive. *)
  List.iteri
    (fun i c ->
      ignore (Tcp.send tcp_a c (Bytes.of_string (Printf.sprintf "conn-%d" i)));
      Tcp.flush tcp_a c)
    clients;
  let received = ref [] in
  let ok =
    H.run_until pair (fun () ->
        List.iter
          (fun s ->
            let b = Tcp.recv tcp_b s ~max:100 in
            if Bytes.length b > 0 then received := Bytes.to_string b :: !received)
          !servers;
        List.length !received = 10)
  in
  Alcotest.(check bool) "all ten delivered" true ok;
  Alcotest.(check int) "no cross-talk (all distinct)" 10
    (List.length (List.sort_uniq compare !received))

let test_half_close_data_still_flows () =
  (* After the client closes its send side, the server in CLOSE-WAIT can
     still push data back (TCP half-close semantics). *)
  let pair, client, server = H.connected_pair () in
  let tcp_a = Stack.tcp pair.H.stack_a and tcp_b = Stack.tcp pair.H.stack_b in
  Tcp.close tcp_a client;
  let ok = H.run_until pair (fun () -> Tcp.eof server) in
  Alcotest.(check bool) "server saw eof" true ok;
  ignore (Tcp.send tcp_b server (Bytes.of_string "parting words"));
  Tcp.flush tcp_b server;
  let got = Buffer.create 16 in
  let ok =
    H.run_until pair (fun () ->
        Buffer.add_bytes got (Tcp.recv tcp_a client ~max:100);
        Buffer.length got >= 13)
  in
  Alcotest.(check bool) "data flows into the half-closed side" true ok;
  H.check_bytes "content" (Bytes.of_string "parting words") (Buffer.to_bytes got)

let prop_stack_survives_random_frames =
  (* Fuzz the demux path: arbitrary bytes injected as frames must never
     crash the stack — they are host-deliverable data. *)
  QCheck.Test.make ~name:"stack survives arbitrary injected frames" ~count:300
    QCheck.(string_of_size Gen.(int_range 0 200))
    (fun junk ->
      let pair = H.make_stack_pair () in
      Cio_tcpip.Stack.handle_frame pair.H.stack_b (Bytes.of_string junk);
      true)

let prop_stack_survives_mutated_real_frames =
  (* Take a real TCP segment in a real frame and flip one bit anywhere:
     the stack must drop or process it, never raise. *)
  QCheck.Test.make ~name:"stack survives bit-flipped real frames" ~count:300
    QCheck.(pair small_nat (int_bound 7))
    (fun (pos, bit) ->
      let pair = H.make_stack_pair () in
      let module O = Frame_oracle in
      let seg =
        O.Tcp_wire.build ~src_ip:(O.of_addr H.ip_a) ~dst_ip:(O.of_addr H.ip_b)
          {
            O.Tcp_wire.src_port = 1234;
            dst_port = 80;
            seq = 100l;
            ack = 0l;
            flags = { O.Tcp_wire.flags_none with O.Tcp_wire.syn = true };
            window = 1000;
            mss = Some 1460;
            payload = Bytes.empty;
          }
      in
      let ip =
        O.Ipv4.build
          { O.Ipv4.src = O.of_addr H.ip_a; dst = O.of_addr H.ip_b; protocol = Cio_frame.Ipv4.Tcp; ttl = 64; payload = seg }
      in
      let frame =
        O.Ethernet.build { O.Ethernet.dst = H.mac_b; src = H.mac_a; ethertype = Cio_frame.Ethernet.Ipv4; payload = ip }
      in
      let i = pos mod Bytes.length frame in
      Bytes.set frame i (Char.chr (Char.code (Bytes.get frame i) lxor (1 lsl bit)));
      Cio_tcpip.Stack.handle_frame pair.H.stack_b frame;
      true)

(* A reincarnated client stack reusing the exact 4-tuple of a connection
   the server still believes is established (what happens when the
   quarantined I/O stack crashes and restarts, losing all TCP state).
   RFC 5961 challenge ACK + RFC 9293 SYN-SENT RST generation must bust
   the ghost: the stale server conn dies, the retransmitted SYN reaches
   the listener, and the new incarnation establishes. *)
let test_stale_incarnation_recovers () =
  let nif_a, nif_b = Cio_tcpip.Netif.loopback_pair ~mac_a:H.mac_a ~mac_b:H.mac_b ~mtu:1500 in
  let clock = ref 0L in
  let now () = !clock in
  let rng = Cio_util.Rng.create 77L in
  let mk nif ip peer_ip peer_mac =
    Stack.create ~netif:nif ~ip ~neighbors:[ (peer_ip, peer_mac) ] ~now
      ~rng:(Cio_util.Rng.split rng) ()
  in
  let stack_a = mk nif_a H.ip_a H.ip_b H.mac_b in
  let stack_b = mk nif_b H.ip_b H.ip_a H.mac_a in
  let tcp_b = Stack.tcp stack_b in
  let listener = Tcp.listen tcp_b ~port:7777 in
  let live_a = ref stack_a in
  let run_until pred =
    let n = ref 0 in
    while (not (pred ())) && !n < 10_000 do
      incr n;
      Stack.poll !live_a;
      Stack.poll stack_b;
      clock := Int64.add !clock 1_000_000L
    done;
    pred ()
  in
  let client1 = Tcp.connect (Stack.tcp stack_a) ~src_port:5555 ~dst:H.ip_b ~dst_port:7777 () in
  let server1 = ref None in
  Alcotest.(check bool) "first incarnation establishes" true
    (run_until (fun () ->
         (match !server1 with None -> server1 := Tcp.accept listener | Some _ -> ());
         Tcp.conn_state client1 = Tcp.Established && !server1 <> None));
  (* The client stack dies with all its TCP state; its reincarnation
     picks the same ephemeral port. *)
  let stack_a2 = mk nif_a H.ip_a H.ip_b H.mac_b in
  live_a := stack_a2;
  let client2 = Tcp.connect (Stack.tcp stack_a2) ~src_port:5555 ~dst:H.ip_b ~dst_port:7777 () in
  let server2 = ref None in
  Alcotest.(check bool) "reincarnation establishes" true
    (run_until (fun () ->
         (match !server2 with None -> server2 := Tcp.accept listener | Some _ -> ());
         Tcp.conn_state client2 = Tcp.Established && !server2 <> None));
  (match !server1 with
  | Some c ->
      Alcotest.(check string) "stale server conn reset" "CLOSED"
        (Tcp.state_name (Tcp.conn_state c))
  | None -> ());
  (* Data flows on the new incarnation. *)
  ignore (Tcp.send (Stack.tcp stack_a2) client2 (Bytes.of_string "reborn"));
  Tcp.flush (Stack.tcp stack_a2) client2;
  let got = Buffer.create 16 in
  Alcotest.(check bool) "data delivered" true
    (run_until (fun () ->
         (match !server2 with
         | Some s -> Buffer.add_bytes got (Tcp.recv tcp_b s ~max:4096)
         | None -> ());
         Buffer.length got >= 6));
  Alcotest.(check string) "payload intact" "reborn" (Buffer.contents got)

(* --- TX coalescing ------------------------------------------------------ *)

(* A stack whose burst netif records each flush: frames built during a
   quantum queue up and leave together at the end of poll, and a partial
   acceptance requeues the tail for the next flush. *)
let make_coalescing_stack ~accept =
  let nif_a, _nif_b = Netif.loopback_pair ~mac_a:H.mac_a ~mac_b:H.mac_b ~mtu:1500 in
  let bursts = ref [] in
  let tx_burst frames =
    let n = min (accept ()) (Array.length frames) in
    bursts := n :: !bursts;
    n
  in
  let stack =
    Stack.create ~tx_burst ~netif:nif_a ~ip:H.ip_a ~neighbors:[ (H.ip_b, H.mac_b) ]
      ~now:(fun () -> 0L)
      ~rng:(Cio_util.Rng.create 9L) ()
  in
  (stack, bursts)

(* [n] frames queued for TX: one SYN per new connection. *)
let queue_syns stack n =
  for i = 1 to n do
    ignore (Tcp.connect (Stack.tcp stack) ~dst:H.ip_b ~dst_port:(7000 + i) ())
  done

let test_stack_tx_coalesces_quantum () =
  let stack, bursts = make_coalescing_stack ~accept:(fun () -> max_int) in
  queue_syns stack 5;
  Alcotest.(check (list int)) "nothing leaves before the flush" [] !bursts;
  Stack.poll stack;
  Alcotest.(check (list int)) "one burst carries the whole quantum" [ 5 ] !bursts;
  Alcotest.(check int) "counted as sent" 5 (Stack.counters stack).Stack.frames_out

let test_stack_tx_partial_burst_requeues () =
  let cap = ref 3 in
  let stack, bursts = make_coalescing_stack ~accept:(fun () -> !cap) in
  queue_syns stack 5;
  Stack.poll stack;
  Alcotest.(check (list int)) "ring-full tail held back" [ 3 ] !bursts;
  cap := max_int;
  Stack.poll stack;
  Alcotest.(check (list int)) "tail retried next quantum" [ 2; 3 ] !bursts

(* The allocation gate of the TCP/IP segment path: two stacks over a
   netif pair that hands each frame itself across (no copy) through
   preallocated rings, pools warm, exchange 64-byte data segments and
   their ACKs, alternating direction. What is left per exchange is the
   [Some] box each of the two [Netif.poll] results is returned in
   (4 words). Measured with the test build (OCaml 5.1.1, x86-64): 4
   words per exchange (192 when each layer decoded into an [Ok] record
   of its own, [Tcp.emit] built its segment, flags and [Some] boxes for
   its optional arguments, sequence numbers and deadlines were boxed,
   each sent segment queued a fresh retransmit entry and the segment-
   size histogram built a closure). The bound is the measurement plus
   10%. *)
let ring_netif_pair () =
  let mk () = (Array.make 16 Bytes.empty, ref 0, ref 0) in
  let push (slots, head, len) frame =
    slots.((!head + !len) land 15) <- frame;
    incr len
  in
  let pop (slots, head, len) =
    if !len = 0 then None
    else begin
      let f = slots.(!head) in
      slots.(!head) <- Bytes.empty;
      head := (!head + 1) land 15;
      decr len;
      Some f
    end
  in
  let qa = mk () and qb = mk () in
  let netif mac inbox outbox =
    { Netif.mac; mtu = 1500; transmit = push outbox; poll = (fun () -> pop inbox) }
  in
  (netif H.mac_a qa qb, netif H.mac_b qb qa)

let test_segment_allocation () =
  let nif_a, nif_b = ring_netif_pair () in
  let clock = ref 0L in
  let now () = !clock in
  let rng = Cio_util.Rng.create 9L in
  let mk nif ip peer_ip peer_mac =
    Stack.create ~netif:nif ~ip ~neighbors:[ (peer_ip, peer_mac) ] ~now
      ~rng:(Cio_util.Rng.split rng) ()
  in
  let stack_a = mk nif_a H.ip_a H.ip_b H.mac_b and stack_b = mk nif_b H.ip_b H.ip_a H.mac_a in
  let tcp_a = Stack.tcp stack_a and tcp_b = Stack.tcp stack_b in
  let listener = Tcp.listen tcp_b ~port:7777 in
  let ca = Tcp.connect tcp_a ~dst:H.ip_b ~dst_port:7777 () in
  let rec accept n =
    Stack.poll stack_a;
    Stack.poll stack_b;
    match Tcp.accept listener with
    | Some cb when Tcp.conn_state ca = Tcp.Established -> cb
    | _ -> if n = 0 then Alcotest.fail "no handshake" else accept (n - 1)
  in
  let cb = accept 100 in
  let msg = Bytes.make 64 'm' and sink = Cio_util.Byteq.create 4096 in
  (* One data segment from [tcp] on [conn], then its ACK back. *)
  let exchange tcp conn ~src ~dst dst_tcp dst_conn =
    ignore (Tcp.send_sub tcp conn msg ~off:0 ~len:64);
    Tcp.flush tcp conn;
    Stack.poll dst;
    ignore (Tcp.recv_into dst_tcp dst_conn sink ~max:64);
    Cio_util.Byteq.drop sink (Cio_util.Byteq.length sink);
    Stack.poll src
  in
  let round () =
    exchange tcp_a ca ~src:stack_a ~dst:stack_b tcp_b cb;
    exchange tcp_b cb ~src:stack_b ~dst:stack_a tcp_a ca
  in
  for _ = 1 to 50 do round () done;
  let segs0 = Tcp.segments_in tcp_a + Tcp.segments_in tcp_b in
  let rounds = 200 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do round () done;
  let per = (Gc.minor_words () -. w0) /. float_of_int (2 * rounds) in
  Alcotest.(check int) "two segments per exchange" (4 * rounds)
    (Tcp.segments_in tcp_a + Tcp.segments_in tcp_b - segs0);
  Alcotest.(check bool) (Printf.sprintf "%.1f words per exchange <= 4.4" per) true (per <= 4.4)

(* A host that forges the listener's SYN-ACK to carry an MSS option of 0
   (checksum fixed up). Taken as is, that MSS leaves the client's
   congestion window at 0: the connection reads ESTABLISHED but never
   sends a byte and never fails. The client clamps it to the floor and
   its data arrives. *)
let test_zero_mss_clamped () =
  let nif_a, nif_b = Netif.loopback_pair ~mac_a:H.mac_a ~mac_b:H.mac_b ~mtu:1500 in
  let seg = Cio_frame.Tcp_wire.create () in
  let forge frame =
    let ip = 14 in
    let ihl = (Bytes.get_uint8 frame ip land 0xF) * 4 in
    let src_ip = Cio_frame.Addr.get_u32 frame (ip + 12)
    and dst_ip = Cio_frame.Addr.get_u32 frame (ip + 16) in
    let off = ip + ihl and len = Bytes.get_uint16_be frame (ip + 2) - ihl in
    match Cio_frame.Tcp_wire.decode seg ~src_ip ~dst_ip frame ~off ~len with
    | Ok () when Cio_frame.Tcp_wire.(has seg.flags syn && has seg.flags ack) ->
        seg.Cio_frame.Tcp_wire.mss <- 0;
        Cio_frame.Tcp_wire.encode frame ~off ~src_ip ~dst_ip seg
    | _ -> ()
  in
  let nif_b =
    { nif_b with Netif.transmit = (fun f -> forge f; nif_b.Netif.transmit f) }
  in
  let clock = ref 0L in
  let now () = !clock in
  let rng = Cio_util.Rng.create 18L in
  let mk netif ip peer_ip peer_mac =
    Stack.create ~netif ~ip ~neighbors:[ (peer_ip, peer_mac) ] ~now ~rng:(Cio_util.Rng.split rng) ()
  in
  let pair =
    { H.stack_a = mk nif_a H.ip_a H.ip_b H.mac_b; stack_b = mk nif_b H.ip_b H.ip_a H.mac_a; clock }
  in
  let client, server = H.connect pair in
  let tcp_a = Stack.tcp pair.H.stack_a in
  let data = Bytes.init 3000 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let got =
    H.transfer pair ~src_tcp:tcp_a ~src_conn:client ~dst_tcp:(Stack.tcp pair.H.stack_b)
      ~dst_conn:server data
  in
  H.check_bytes "data delivered" data got;
  Alcotest.(check int) "one clamp counted" 1 (Tcp.mss_clamps tcp_a)

let suite =
  [
    Alcotest.test_case "tcp: three-way handshake" `Quick test_handshake;
    Alcotest.test_case "tcp: stale incarnation recovers" `Quick test_stale_incarnation_recovers;
    Alcotest.test_case "tcp: small transfer" `Quick test_small_transfer;
    Alcotest.test_case "tcp: large transfer (windowed)" `Quick test_large_transfer_exceeds_window;
    Alcotest.test_case "tcp: bidirectional" `Quick test_bidirectional_transfer;
    Alcotest.test_case "tcp: graceful close" `Quick test_graceful_close;
    Alcotest.test_case "tcp: connection refused" `Quick test_connection_refused;
    Alcotest.test_case "tcp: send after close" `Quick test_data_after_close_rejected;
    Alcotest.test_case "tcp: accept queue" `Quick test_listener_accept_queue;
    Alcotest.test_case "tcp: duplicate listen" `Quick test_duplicate_listen_rejected;
    Alcotest.test_case "tcp: retransmission on loss" `Slow test_retransmission_on_loss;
    Alcotest.test_case "tcp: duplication tolerated" `Slow test_duplication_tolerated;
    Alcotest.test_case "tcp: reordering reassembled" `Slow test_reordering_reassembled;
    Alcotest.test_case "tcp: combined impairment" `Slow test_combined_impairment;
    Alcotest.test_case "tcp: retransmit after TX buffer reuse" `Slow
      test_retransmit_after_tx_buffer_reuse;
    Alcotest.test_case "tcp: out-of-order stash survives RX reuse" `Quick
      test_ooo_stash_survives_rx_reuse;
    Alcotest.test_case "stack: RX frames refill the TX pool" `Quick test_rx_frames_refill_tx_pool;
    Alcotest.test_case "udp: unbound port" `Quick test_udp_unbound_port_dropped;
    Alcotest.test_case "stack: foreign frames ignored" `Quick test_stack_ignores_foreign_frames;
    Alcotest.test_case "stack: garbage counted" `Quick test_stack_counts_garbage;
    Alcotest.test_case "stack: work metered" `Quick test_stack_meter_charges;
    Alcotest.test_case "stack: TX coalesced per quantum" `Quick test_stack_tx_coalesces_quantum;
    Alcotest.test_case "stack: partial burst requeued" `Quick test_stack_tx_partial_burst_requeues;
    Alcotest.test_case "tcp: ten concurrent connections" `Quick test_ten_concurrent_connections;
    Alcotest.test_case "tcp: half-close data flow" `Quick test_half_close_data_still_flows;
    Alcotest.test_case "tcp: refused connection released" `Quick test_refused_connection_released;
    Alcotest.test_case "tcp: steady-state segment allocation" `Quick test_segment_allocation;
    Alcotest.test_case "tcp: forged zero MSS clamped" `Quick test_zero_mss_clamped;
    Helpers.qtest prop_stack_survives_random_frames;
    Helpers.qtest prop_stack_survives_mutated_real_frames;
  ]

(* Integration tests: the dual-boundary unit end to end, the five Figure-5
   configurations, and the orderings the paper predicts. *)

open Cio_util
open Cio_core
module C = Configurations

let run_quick kind = C.run_echo ~messages:10 ~msg_size:512 kind

let test_all_configurations_complete () =
  List.iter
    (fun kind ->
      let m = run_quick kind in
      Alcotest.(check bool) (C.kind_name kind ^ " completes") true m.C.completed;
      Alcotest.(check int) (C.kind_name kind ^ " echo count") 10 m.C.messages)
    C.all_kinds

let test_dual_fastest_per_byte () =
  (* The headline performance claim: the dual boundary preserves (here:
     beats, thanks to polling) passthrough-class performance. *)
  let dual = run_quick C.Dual_boundary and pass = run_quick C.Passthrough_l2 in
  Alcotest.(check bool) "dual <= passthrough cycles/byte" true
    (C.cycles_per_byte dual <= C.cycles_per_byte pass)

let test_hardening_tax_visible () =
  let unh = run_quick C.Passthrough_l2 and hard = run_quick C.Hardened_virtio in
  Alcotest.(check bool) "hardened costs more than unhardened" true
    (Cost.total hard.C.guest > Cost.total unh.C.guest)

let test_syscall_slowest_of_tcp_designs () =
  let sys = run_quick C.Syscall_l5 and pass = run_quick C.Passthrough_l2 in
  Alcotest.(check bool) "syscall >= passthrough cycles/byte" true
    (C.cycles_per_byte sys >= C.cycles_per_byte pass)

let test_observability_ordering () =
  (* Figure 5's Obs axis: syscall > raw L2 designs > dual >= tunneled,
     with tunneled strictly the lowest. *)
  let score k = Cio_observe.Observe.score (run_quick k).C.tap in
  let sys = score C.Syscall_l5
  and pass = score C.Passthrough_l2
  and dual = score C.Dual_boundary
  and tun = score C.Tunneled in
  Alcotest.(check bool) "syscall > passthrough" true (sys > pass);
  Alcotest.(check bool) "passthrough > dual (no doorbells)" true (pass > dual);
  Alcotest.(check bool) "dual > tunneled" true (dual > tun)

let test_tcb_ordering () =
  Cio_tcb.Tcb.set_repo_root (Helpers.repo_root ());
  let core kind = Cio_tcb.Tcb.sum (C.tcb kind).C.core
  and quarantined kind = Cio_tcb.Tcb.sum (C.tcb kind).C.quarantined in
  Alcotest.(check bool) "dual core TCB < passthrough core TCB" true
    (core C.Dual_boundary < core C.Passthrough_l2);
  Alcotest.(check bool) "dual quarantines the stack" true (quarantined C.Dual_boundary > 0);
  Alcotest.(check int) "single-boundary designs quarantine nothing" 0
    (quarantined C.Passthrough_l2)

let test_dual_crossings_bounded () =
  let m = run_quick C.Dual_boundary in
  (* Handoff crossings scale with traffic, not with polling time. *)
  Alcotest.(check bool) "crossings > 0" true (m.C.crossings > 0);
  Alcotest.(check bool) "crossings bounded by a small multiple of messages" true
    (m.C.crossings < 20 * m.C.messages)

let test_tunnel_uniform_sizes () =
  let m = run_quick C.Tunneled in
  let sizes =
    List.filter_map
      (fun e ->
        if e.Cio_observe.Observe.size > 0 then Some e.Cio_observe.Observe.size else None)
      (Cio_observe.Observe.events m.C.tap)
  in
  let distinct = List.sort_uniq compare sizes in
  Alcotest.(check bool) "at most two distinct sizes on the wire" true
    (List.length distinct <= 2)

let test_deterministic_runs () =
  let a = C.run_echo ~seed:77L ~messages:5 C.Dual_boundary in
  let b = C.run_echo ~seed:77L ~messages:5 C.Dual_boundary in
  Alcotest.(check int) "same total cycles" (Cost.total a.C.guest) (Cost.total b.C.guest);
  Alcotest.(check int64) "same sim time" a.C.sim_ns b.C.sim_ns

let test_message_sizes_sweep () =
  List.iter
    (fun size ->
      let m = C.run_echo ~messages:5 ~msg_size:size C.Dual_boundary in
      Alcotest.(check bool) (Printf.sprintf "size %d completes" size) true m.C.completed)
    [ 16; 256; 1400; 4096; 16000 ]

let test_tunnel_codec_roundtrip () =
  let tx, rx = Tunnel.pair ~key:(Bytes.make 32 'T') in
  let frame = Bytes.of_string "an ethernet frame, say" in
  let blob = Tunnel.seal tx ~pad_to:1600 frame in
  Alcotest.(check bool) "padded" true (Bytes.length blob >= 1590);
  (match Tunnel.open_ rx blob with
  | Some back -> Helpers.check_bytes "roundtrip" frame back
  | None -> Alcotest.fail "tunnel open failed");
  (* Tampered blob rejected. *)
  Bytes.set blob 40 '\x00';
  Alcotest.(check bool) "tamper rejected" true (Tunnel.open_ rx blob = None)

let test_tunnel_uniform_padding () =
  let tx, _ = Tunnel.pair ~key:(Bytes.make 32 'T') in
  let small = Tunnel.seal tx ~pad_to:1600 (Bytes.of_string "a") in
  let large = Tunnel.seal tx ~pad_to:1600 (Bytes.make 1400 'z') in
  Alcotest.(check int) "size-independent" (Bytes.length small) (Bytes.length large)

(* Each tunnel counts its own nonces: a tunnel's blobs do not depend on
   what other tunnels in the process sealed before. *)
let test_tunnel_nonces_per_tunnel () =
  let key = Bytes.make 32 'T' and frame = Bytes.of_string "the same frame" in
  let first, _ = Tunnel.pair ~key in
  let a = Tunnel.seal first ~pad_to:128 frame in
  let second, _ = Tunnel.pair ~key in
  Helpers.check_bytes "same frame, same blob" a (Tunnel.seal second ~pad_to:128 frame)

(* Both directions of the tunneled configuration seal under the one
   tunnel key, one end each: interleaved, as an echo's traffic is, their
   nonces never meet, and each end opens the other's blobs. *)
let test_tunnel_directions_disjoint () =
  let unit_end, peer_end = Tunnel.pair ~key:(Bytes.make 32 'T') in
  let nonces = Hashtbl.create 64 in
  for i = 1 to 40 do
    let from, into = if i mod 3 = 0 then (peer_end, unit_end) else (unit_end, peer_end) in
    let frame = Bytes.make (i mod 7) 'f' in
    let blob = Tunnel.seal from ~pad_to:128 frame in
    let nonce = Bytes.sub_string blob 0 12 in
    Alcotest.(check bool) (Printf.sprintf "blob %d: fresh nonce" i) false (Hashtbl.mem nonces nonce);
    Hashtbl.add nonces nonce ();
    match Tunnel.open_ into blob with
    | Some back -> Helpers.check_bytes "opened by the other end" frame back
    | None -> Alcotest.fail "the other end could not open the blob"
  done

(* A host that reflects an end's own blobs back to it gets nothing
   through: the end refuses its own direction byte before the AEAD runs,
   so not even an intact blob opens, while the other end still opens
   it. *)
let test_tunnel_refuses_own_blobs () =
  let unit_end, peer_end = Tunnel.pair ~key:(Bytes.make 32 'T') in
  let frame = Bytes.of_string "own frame" in
  List.iter
    (fun (name, sender, receiver) ->
      let blob = Tunnel.seal sender ~pad_to:128 frame in
      Alcotest.(check bool) (name ^ ": own blob refused") true (Tunnel.open_ sender blob = None);
      match Tunnel.open_ receiver blob with
      | Some back -> Helpers.check_bytes (name ^ ": other end opens it") frame back
      | None -> Alcotest.fail (name ^ ": the other end could not open the blob"))
    [ ("unit", unit_end, peer_end); ("peer", peer_end, unit_end) ]

(* --- dual unit as a library (not through the harness) ----------------- *)

let test_dual_unit_echo_direct () =
  let d = Testbed.attach_dual (Testbed.create ~name:"direct" ~psk_id:"d" ~seed:3L ()) in
  let unit_ = d.Testbed.unit_ in
  let ch = Testbed.connect d in
  let pump () = Testbed.pump d ~by:2_000L in
  let rec until pred n = pred () || (n > 0 && (pump (); until pred (n - 1))) in
  Alcotest.(check bool) "established" true (until (fun () -> Channel.is_established ch) 2000);
  (match Channel.send ch (Bytes.of_string "dual-echo") with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Cio_tls.Session.error_to_string e));
  let got = ref None in
  Alcotest.(check bool) "echo received" true
    (until
       (fun () ->
         (match Channel.recv ch with Some m -> got := Some m | None -> ());
         !got <> None)
       2000);
  Helpers.check_bytes "echo content" (Bytes.of_string "dual-echo") (Option.get !got);
  (* The dual unit's confidentiality invariant: every frame the host saw
     is ciphertext — the plaintext never appears on the shared region. *)
  Alcotest.(check bool) "gate crossings happened" true (Dual.crossings unit_ > 0)

(* A dual unit with an established channel to the testbed's echo peer,
   and a closed-loop echo of [msg] over it (one message in flight), each
   quantum run by [pump]. *)
let echo_rig ?(pump = fun d -> Testbed.pump d ~by:2_000L) ~name ~seed () =
  let d = Testbed.attach_dual (Testbed.create ~name ~psk_id:name ~seed ()) in
  let ch = Testbed.connect d in
  let pump () = pump d in
  let rec until pred n = pred () || (n > 0 && (pump (); until pred (n - 1))) in
  Alcotest.(check bool) "established" true (until (fun () -> Channel.is_established ch) 2000);
  (* Each echo is received into one buffer the rig keeps. *)
  let buf = Bytes.create Cio_tls.Session.max_payload in
  let echo msg =
    (match Channel.send ch msg with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Cio_tls.Session.error_to_string e));
    let len = ref (-1) in
    if
      not
        (until
           (fun () ->
             len := Channel.recv_into ch buf;
             !len >= 0)
           2000)
    then Alcotest.fail "echo lost";
    (* Compared in place: the check's string copies would be counted as
       the echo's allocations. *)
    let n = Bytes.length msg in
    let rec same i = i = n || (Bytes.get msg i = Bytes.get buf i && same (i + 1)) in
    if not (!len = n && same 0) then Helpers.check_bytes "echo content" msg (Bytes.sub buf 0 !len)
  in
  (d, ch, echo)

let test_dual_echo_steady_state_zero_alloc () =
  (* The allocation-free acceptance bar: once the pool is warm, a dual-
     boundary TLS echo performs zero fresh Bytes allocations per frame on
     the L2 path (RX consume buffers and TX pad staging all recycle). *)
  let d, _, echo = echo_rig ~name:"steady" ~seed:11L () in
  let msg = Bytes.make 512 'e' in
  for _ = 1 to 6 do echo msg done;
  let pool = Cio_cionet.Driver.pool (Dual.driver d.Testbed.unit_) in
  let fresh0 = (Cio_mem.Bufpool.stats pool).Cio_mem.Bufpool.fresh in
  for _ = 1 to 10 do echo msg done;
  Alcotest.(check int) "zero per-frame allocations on the L2 path" fresh0
    (Cio_mem.Bufpool.stats pool).Cio_mem.Bufpool.fresh

(* The CI allocation gate: minor-heap words per echo of the whole world
   (unit, host model, link, echo peer), pools warm. The count is
   deterministic for a given build, so it gates where wall-clock cannot.
   Measured with the test build (OCaml 5.1.1, x86-64), 32 echoes after 8
   warm-up ones, each echo received into a buffer the rig keeps and
   compared in place: 8 KiB, 350.7 words per echo (398.7 when both
   stacks took each received frame in a [Netif.poll] [Some], 2163 when
   the driver region also logged every access, 2172 when each opened
   payload also had a buffer of its own, boxed in an [Ok], queued in a
   [Queue] cell and handed back in a [Some], on both sides; 2292 when
   the ring's consume step also returned its offset and length as a
   pair and its frame boxed, 2898 when every engine event and frame in
   flight was also a record and a closure of its own, every clock value
   a boxed Int64, and the host model and the echo peer queued frames in
   [Queue] cells); 64 B, 92.7 (100.7, 507, 536, 556, 668). Earlier
   figures also counted the comparison's string copies:
   8 KiB, 3249 (5667 when each TCP/IP layer decoded into a record of its
   own and segments, sequence numbers, deadlines and retransmit entries
   were built per segment, 8154 when polls built closures and every TLS
   record was built and parsed in buffers of its own, 11687 when the
   host model and the echo peer also put every frame in a fresh buffer,
   26515 when every layer built and parsed into buffers of its own);
   64 B, 1039 (1425, 2840, 3110, 3591). The region access log, one
   7-word entry per ring access of every poll, was 406 words of the
   64 B figure and 1764 of the 8 KiB one. Each bound is the measurement
   plus 10% (the last bounds were 110 / 438).

   Nothing is allocated straight on the major heap, which no minor count
   sees (2052 words per 8 KiB echo when [Session.feed_into] opened each
   payload into a 1026-word buffer of its own, one on each side). *)
let echo_msg size = Bytes.init size (fun i -> Char.chr (i land 0xFF))

(* Minor words and words allocated straight on the major heap. *)
let words_per_echo ~size =
  let _, _, echo = echo_rig ~name:"alloc" ~seed:5L () in
  let msg = echo_msg size in
  for _ = 1 to 8 do echo msg done;
  let w0 = Gc.minor_words () and _, p0, m0 = Gc.counters () in
  for _ = 1 to 32 do echo msg done;
  let _, p1, m1 = Gc.counters () in
  ((Gc.minor_words () -. w0) /. 32., (m1 -. m0 -. (p1 -. p0)) /. 32.)

let test_dual_echo_minor_words () =
  let w8k, major8k = words_per_echo ~size:8192 and w64, _ = words_per_echo ~size:64 in
  Alcotest.(check bool) (Printf.sprintf "8 KiB: %.1f words per echo <= 385" w8k) true
    (w8k <= 385.);
  Alcotest.(check bool) (Printf.sprintf "64 B: %.1f words per echo <= 101" w64) true (w64 <= 101.);
  Alcotest.(check bool) (Printf.sprintf "8 KiB: %.1f direct major words per echo = 0" major8k)
    true (major8k <= 0.)

(* The harness alone: the words [Host_model.poll], [Peer.poll] and
   [Engine.advance] allocate per echo, with the testbed's tap off (the
   tap's records are the observer's, counted by the whole-world gate
   above): none. The engine, the link and the host model allocate
   nothing (its burst consume writes each frame into the caller's
   array), and the echo peer receives each frame through its stack's
   [recv] and each message into its one buffer, and echoes it from
   there. Earlier: 4 / 24 words per 64 B / 8 KiB echo when the peer's
   stack took each frame in a [Netif.poll] [Some] (2 frames per 64 B
   echo, 12 per 8 KiB echo); 21 and 31 when the peer's channel also
   gave each opened payload a buffer of its own, 10 words at 64 B and a
   major-heap block at 8 KiB, boxed it in an [Ok], 2, queued it in a
   [Queue] cell, 3, and handed it back in a [Some], 2; 31 and 91 when
   the ring's consume step also returned its offset and length as a
   pair and its frame boxed, 5 words per frame the host model took off
   the guest's TX ring; 173 and 745 when each engine event and frame in
   flight was also a record and a closure of its own and the receive
   queues took a [Queue] cell per frame. [split_words] also returns the
   words [Dual.poll] allocates per quantum and the quanta counted. *)
let split_words ~size =
  let harness = [| 0. |] and unit_words = [| 0. |] and quanta = [| 0 |] in
  let pump d =
    let w0 = Gc.minor_words () in
    Dual.poll d.Testbed.unit_;
    let w1 = Gc.minor_words () in
    Cio_cionet.Host_model.poll d.Testbed.host;
    Peer.poll d.Testbed.bed.Testbed.peer;
    Cio_netsim.Engine.advance d.Testbed.bed.Testbed.engine ~by:2_000L;
    unit_words.(0) <- unit_words.(0) +. (w1 -. w0);
    harness.(0) <- harness.(0) +. (Gc.minor_words () -. w1);
    quanta.(0) <- quanta.(0) + 1
  in
  let d, _, echo = echo_rig ~pump ~name:"harness" ~seed:5L () in
  Cio_netsim.Link.set_transit_tap d.Testbed.bed.Testbed.link None;
  let msg = echo_msg size in
  for _ = 1 to 8 do echo msg done;
  harness.(0) <- 0.;
  unit_words.(0) <- 0.;
  quanta.(0) <- 0;
  for _ = 1 to 32 do echo msg done;
  (harness.(0) /. 32., unit_words.(0) /. float_of_int quanta.(0), quanta.(0))

let test_harness_words () =
  let w8k, _, _ = split_words ~size:8192 and w64, _, _ = split_words ~size:64 in
  Alcotest.(check bool) (Printf.sprintf "8 KiB: %.1f harness words per echo = 0" w8k) true
    (w8k <= 0.);
  Alcotest.(check bool) (Printf.sprintf "64 B: %.1f harness words per echo = 0" w64) true
    (w64 <= 0.)

(* The unit's own quantum during an 8 KiB echo stream: [Dual.poll]
   allocates at most the clock's one boxed Int64 (3 words) per quantum,
   the first read of each clock value by any of the world's readers.
   Every received frame reaches the stack through [Driver.recv]; when
   it came in a [Netif.poll] [Some] this read 4.5 words, 2 more per
   frame. *)
let test_dual_poll_words () =
  let _, per, quanta = split_words ~size:8192 in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per Dual.poll over %d quanta <= 3" per quanta)
    true (per <= 3.)

(* The stack's [recv] receive against its [netif.poll] one: the same TLS
   echo stream over a stack on a cionet driver, its frames received
   through [Driver.recv] or through the driver's netif, gives the same
   echoes, frame counts, stack counters, cycles and simulated time. *)
let recv_echo ~use_recv =
  let bed = Testbed.create ~name:"recv" ~psk_id:"recv" ~seed:29L () in
  let meter = Cost.meter () in
  let driver =
    Cio_cionet.Driver.create ~meter ~name:"recv"
      { Cio_cionet.Config.default with Cio_cionet.Config.mac = Testbed.mac_tee }
  in
  let host = Cio_cionet.Host_model.create ~driver ~transmit:(Testbed.transmit bed) in
  Cio_netsim.Link.attach bed.Testbed.link Cio_netsim.Link.A (Cio_cionet.Host_model.deliver_rx host);
  let recv = if use_recv then Some (fun () -> Cio_cionet.Driver.recv driver) else None in
  let stack =
    Cio_tcpip.Stack.create ~meter ~tx_burst:(Cio_cionet.Driver.transmit_burst driver)
      ~recycle:(Cio_cionet.Driver.recycle driver) ?recv
      ~netif:(Cio_cionet.Driver.to_netif driver) ~ip:Testbed.ip_tee
      ~neighbors:Testbed.neighbors_tee ~now:(Testbed.now bed) ~rng:(Rng.split bed.Testbed.rng) ()
  in
  let session =
    Cio_tls.Session.create ~meter ~role:Cio_tls.Session.Client ~psk:Testbed.psk ~psk_id:"recv"
      ~rng:(Rng.split bed.Testbed.rng) ()
  in
  let conn =
    Cio_tcpip.Tcp.connect (Cio_tcpip.Stack.tcp stack) ~dst:Testbed.ip_peer
      ~dst_port:Testbed.echo_port ()
  in
  let ch = Channel.create ~meter ~session ~stack ~conn () in
  ignore (Channel.start_handshake ch);
  let step () =
    Testbed.step bed
      ~guest:(fun () ->
        Cio_tcpip.Stack.poll stack;
        Channel.pump ch)
      ~host:(fun () -> Cio_cionet.Host_model.poll host)
      ~by:2_000L
  in
  let rec until pred n = pred () || (n > 0 && (step (); until pred (n - 1))) in
  Alcotest.(check bool) "established" true (until (fun () -> Channel.is_established ch) 2000);
  let buf = Bytes.create Cio_tls.Session.max_payload in
  let echoes =
    List.init 6 (fun i ->
        let msg = Bytes.init (1000 + (1500 * i)) (fun j -> Char.chr ((i + j) land 0xFF)) in
        (match Channel.send ch msg with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Cio_tls.Session.error_to_string e));
        let len = ref (-1) in
        if not (until (fun () -> len := Channel.recv_into ch buf; !len >= 0) 2000) then
          Alcotest.fail "echo lost";
        Bytes.sub_string buf 0 !len)
  in
  let k = Cio_tcpip.Stack.counters stack in
  ( echoes,
    [
      Cio_cionet.Driver.rx_frames driver;
      Cio_cionet.Driver.tx_frames driver;
      k.Cio_tcpip.Stack.frames_in;
      k.Cio_tcpip.Stack.frames_out;
      k.Cio_tcpip.Stack.dropped;
    ],
    List.concat_map (fun c -> [ Cost.cycles_of meter c; Cost.count_of meter c ]) Cost.all_categories,
    Cio_netsim.Engine.now bed.Testbed.engine )

let test_stack_recv_matches_netif_poll () =
  let echoes, counts, cycles, sim_ns = recv_echo ~use_recv:true in
  let echoes', counts', cycles', sim_ns' = recv_echo ~use_recv:false in
  Alcotest.(check (list string)) "same echoes" echoes' echoes;
  Alcotest.(check (list int)) "same frame counts and stack counters" counts' counts;
  Alcotest.(check (list int)) "same cycles and events per category" cycles' cycles;
  Alcotest.(check int64) "same simulated time" sim_ns' sim_ns;
  Alcotest.(check bool) "frames were received" true (List.hd counts > 0)

(* An idle quantum allocates nothing but the new clock value, one boxed
   Int64 (3 words), which [Engine.now] boxes once for every reader of
   the stacks' [now : unit -> int64]: handshake done, nothing in flight. *)
let test_idle_quantum_allocates_nothing () =
  let d, _, echo = echo_rig ~name:"idle" ~seed:13L () in
  echo (Bytes.make 64 'i');
  for _ = 1 to 200 do
    Testbed.pump d ~by:2_000L
  done;
  let quanta = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to quanta do
    Testbed.pump d ~by:2_000L
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int quanta in
  Alcotest.(check bool) (Printf.sprintf "%.1f words per idle quantum <= 3" per) true (per <= 3.)

(* Bounded state: a dual echo's live heap does not grow with traffic.
   Live words after a full major collection, at N = 10_000 and at 5N
   64 B echoes, with the testbed's tap off (the tap records every frame
   by design; the harness gate above switches it off the same way). The
   two readings must agree within 1024 words. Measured with the test
   build (OCaml 5.1.1, x86-64): 222736 and 222731 words, about 0.5 s in
   all. When the driver region kept a log of every ring access, the
   live heap grew 406 words (3.2 KB) per echo: 4283505 and 20523500
   words. *)
let test_live_heap_flat () =
  let d, _, echo = echo_rig ~name:"live" ~seed:23L () in
  Cio_netsim.Link.set_transit_tap d.Testbed.bed.Testbed.link None;
  let msg = echo_msg 64 in
  let live_after n =
    for _ = 1 to n do echo msg done;
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let n = 10_000 in
  let at_n = live_after n in
  let at_5n = live_after (4 * n) in
  (* One more echo keeps the rig live across both readings. *)
  echo msg;
  Alcotest.(check bool)
    (Printf.sprintf "live words %d at %d echoes, %d at %d: within 1024" at_n n at_5n (5 * n))
    true
    (abs (at_5n - at_n) <= 1024)

(* A message over the record limit is refused at the sender with the
   session intact, so the channel must stay usable: the refusal is the
   caller's to handle, not a reason to reconnect. *)
let test_oversized_send_keeps_channel () =
  let _, ch, echo = echo_rig ~name:"oversized" ~seed:17L () in
  (match Channel.send ch (Bytes.make 20_000 'o') with
  | Error (Cio_tls.Session.Bad_format _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Cio_tls.Session.error_to_string e)
  | Ok () -> Alcotest.fail "a 20000-byte message was accepted");
  Alcotest.(check bool) "channel not failed" true (Channel.error ch = None);
  echo (Bytes.of_string "small")

(* A lent buffer shorter than the next message is refused, and the
   message stays queued for a buffer that fits. *)
let test_recv_into_short_buffer () =
  let d, ch, echo = echo_rig ~name:"short" ~seed:19L () in
  let msg = Bytes.of_string "twelve bytes" in
  (match Channel.send ch msg with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Cio_tls.Session.error_to_string e));
  let short = Bytes.create (Bytes.length msg - 1) in
  let rec refused n =
    n > 0
    &&
    match Channel.recv_into ch short with
    | -1 ->
        Testbed.pump d ~by:2_000L;
        refused (n - 1)
    | len -> Alcotest.failf "a %d-byte message taken into an 11-byte buffer" len
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "short buffer refused" true (refused 2000);
  let buf = Bytes.create 64 in
  let len = Channel.recv_into ch buf in
  Helpers.check_bytes "message still queued" msg (Bytes.sub buf 0 (Int.max 0 len));
  Alcotest.(check int) "nothing behind it" (-1) (Channel.recv_into ch buf);
  echo (Bytes.of_string "after")

let test_channel_copy_knobs_change_costs () =
  (* E7 at unit level: zero-copy send saves the L5 crossing copy. *)
  let run ~zc =
    let pair = Helpers.make_stack_pair () in
    let tcp_a = Cio_tcpip.Stack.tcp pair.Helpers.stack_a in
    let tcp_b = Cio_tcpip.Stack.tcp pair.Helpers.stack_b in
    let listener = Cio_tcpip.Tcp.listen tcp_b ~port:5555 in
    let conn = Cio_tcpip.Tcp.connect tcp_a ~dst:Helpers.ip_b ~dst_port:5555 () in
    let server_conn = ref None in
    ignore
      (Helpers.run_until pair (fun () ->
           (match !server_conn with None -> server_conn := Cio_tcpip.Tcp.accept listener | Some _ -> ());
           Cio_tcpip.Tcp.conn_state conn = Cio_tcpip.Tcp.Established && !server_conn <> None));
    let meter = Cost.meter () in
    let rng = Rng.create 5L in
    let session =
      Cio_tls.Session.create ~meter ~role:Cio_tls.Session.Client
        ~psk:(Bytes.make 32 'p') ~psk_id:"t" ~rng ()
    in
    let ch =
      Channel.create ~zero_copy_send:zc ~copy_on_recv:false ~meter ~session
        ~stack:pair.Helpers.stack_a ~conn ()
    in
    ignore (Channel.start_handshake ch);
    ignore (Channel.send ch (Bytes.make 4096 'd'));
    Channel.pump ch;
    Cost.cycles_of meter Cost.Copy
  in
  let with_copy = run ~zc:false and without_copy = run ~zc:true in
  Alcotest.(check bool) "zero-copy saves cycles" true (without_copy < with_copy)

let suite =
  [
    Alcotest.test_case "all five configurations complete" `Slow test_all_configurations_complete;
    Alcotest.test_case "fig5: dual fastest per byte" `Slow test_dual_fastest_per_byte;
    Alcotest.test_case "fig5: hardening tax" `Slow test_hardening_tax_visible;
    Alcotest.test_case "fig5: syscall slowest TCP design" `Slow test_syscall_slowest_of_tcp_designs;
    Alcotest.test_case "fig5: observability ordering" `Slow test_observability_ordering;
    Alcotest.test_case "fig5: TCB ordering" `Slow test_tcb_ordering;
    Alcotest.test_case "dual: handoff crossings bounded" `Slow test_dual_crossings_bounded;
    Alcotest.test_case "tunnel: uniform wire sizes" `Slow test_tunnel_uniform_sizes;
    Alcotest.test_case "runs are deterministic" `Slow test_deterministic_runs;
    Alcotest.test_case "message size sweep" `Slow test_message_sizes_sweep;
    Alcotest.test_case "tunnel codec roundtrip" `Quick test_tunnel_codec_roundtrip;
    Alcotest.test_case "tunnel uniform padding" `Quick test_tunnel_uniform_padding;
    Alcotest.test_case "tunnel: nonces per tunnel" `Quick test_tunnel_nonces_per_tunnel;
    Alcotest.test_case "tunnel: directions never share a nonce" `Quick
      test_tunnel_directions_disjoint;
    Alcotest.test_case "tunnel: an end refuses its own blobs" `Quick test_tunnel_refuses_own_blobs;
    Alcotest.test_case "dual unit direct echo" `Slow test_dual_unit_echo_direct;
    Alcotest.test_case "dual echo allocation-free in steady state" `Slow
      test_dual_echo_steady_state_zero_alloc;
    Alcotest.test_case "dual echo minor words per message" `Slow test_dual_echo_minor_words;
    Alcotest.test_case "dual echo harness words per message" `Slow test_harness_words;
    Alcotest.test_case "dual poll words per quantum" `Slow test_dual_poll_words;
    Alcotest.test_case "stack: recv matches netif poll" `Slow test_stack_recv_matches_netif_poll;
    Alcotest.test_case "idle quantum allocates nothing" `Slow test_idle_quantum_allocates_nothing;
    Alcotest.test_case "dual echo live heap flat" `Slow test_live_heap_flat;
    Alcotest.test_case "channel copy knobs (E7)" `Quick test_channel_copy_knobs_change_costs;
    Alcotest.test_case "channel: short receive buffer keeps the message" `Slow
      test_recv_into_short_buffer;
    Alcotest.test_case "dual: oversized send keeps the channel" `Slow
      test_oversized_send_keeps_channel;
  ]

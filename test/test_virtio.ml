(* Virtio baseline tests: wire-level ring layout, benign datapaths for
   both drivers, and the per-attack behavioural contrasts that E4
   aggregates. *)

open Cio_mem
open Cio_virtio

let contains haystack needle =
  let n = String.length haystack and c = String.length needle in
  let rec go i = i + c <= n && (String.equal (String.sub haystack i c) needle || go (i + 1)) in
  c = 0 || go 0

let make_pair ?(hardened = false) () =
  let transport = Transport.create ~name:"test-virtio" () in
  let sent = ref [] in
  let device =
    Device.create ~rx:(Transport.rx transport) ~tx:(Transport.tx transport)
      ~transmit:(fun f -> sent := f :: !sent)
  in
  (transport, device, sent, hardened)

let test_vring_layout_bit_accurate () =
  let region = Region.create ~prot:Region.Shared ~model:Cio_util.Cost.default ~name:"vr" 8192 in
  let v = Vring.create ~region ~base:0 ~size:4 in
  Vring.write_desc v Region.Guest 2 { Vring.addr = 0x1000; len = 256; flags = 3; next = 1 };
  (* Descriptor 2 starts at byte 32: addr u64 LE, len u32, flags u16, next u16. *)
  Alcotest.(check int64) "addr" 0x1000L (Region.read_u64 region Region.Guest ~off:32);
  Alcotest.(check int) "len" 256 (Region.read_u32 region Region.Guest ~off:40);
  Alcotest.(check int) "flags" 3 (Region.read_u16 region Region.Guest ~off:44);
  Alcotest.(check int) "next" 1 (Region.read_u16 region Region.Guest ~off:46)

let test_vring_avail_used_idx () =
  let region = Region.create ~prot:Region.Shared ~model:Cio_util.Cost.default ~name:"vr" 8192 in
  let v = Vring.create ~region ~base:0 ~size:8 in
  Vring.set_avail_idx v Region.Guest 5;
  Alcotest.(check int) "avail idx cross-actor" 5 (Vring.avail_idx v Region.Host);
  Vring.set_used_entry v Region.Host 3 ~id:6 ~len:99;
  let id, len = Vring.used_entry v Region.Guest 3 in
  Alcotest.(check int) "used id" 6 id;
  Alcotest.(check int) "used len" 99 len

let test_vring_ring_positions_wrap () =
  let region = Region.create ~prot:Region.Shared ~model:Cio_util.Cost.default ~name:"vr" 8192 in
  let v = Vring.create ~region ~base:0 ~size:4 in
  Vring.set_avail_entry v Region.Guest 6 42 (* position 6 wraps to slot 2 *);
  Alcotest.(check int) "wrapped position" 42 (Vring.avail_entry v Region.Host 2)

let test_vring_geometry_validated () =
  let region = Region.create ~prot:Region.Shared ~model:Cio_util.Cost.default ~name:"vr" 8192 in
  Alcotest.check_raises "non-pow2" (Invalid_argument "Vring.create: size must be a power of two")
    (fun () -> ignore (Vring.create ~region ~base:0 ~size:5))

let test_unhardened_tx_rx () =
  let _, device, sent, _ = make_pair () in
  let transport, device2, sent2, _ = make_pair () in
  ignore device;
  ignore sent;
  let drv = Driver_unhardened.create transport in
  Alcotest.(check bool) "tx accepted" true (Driver_unhardened.transmit drv (Bytes.of_string "out"));
  Device.poll device2;
  Alcotest.(check int) "forwarded" 1 (List.length !sent2);
  Helpers.check_bytes "frame content" (Bytes.of_string "out") (List.hd !sent2);
  Device.deliver_rx device2 (Bytes.of_string "inbound");
  Device.poll device2;
  match Driver_unhardened.poll drv with
  | Some f -> Helpers.check_bytes "rx" (Bytes.of_string "inbound") f
  | None -> Alcotest.fail "no rx frame"

let test_hardened_tx_rx () =
  let transport, device, sent, _ = make_pair ~hardened:true () in
  let drv = Driver_hardened.create transport in
  Alcotest.(check bool) "tx accepted" true (Driver_hardened.transmit drv (Bytes.of_string "out"));
  Device.poll device;
  Alcotest.(check int) "forwarded" 1 (List.length !sent);
  Device.deliver_rx device (Bytes.of_string "inbound");
  Device.poll device;
  match Driver_hardened.poll drv with
  | Some f -> Helpers.check_bytes "rx" (Bytes.of_string "inbound") f
  | None -> Alcotest.fail "no rx frame"

let test_many_frames_both_directions () =
  let transport, device, sent, _ = make_pair () in
  let drv = Driver_hardened.create transport in
  for i = 1 to 40 do
    Alcotest.(check bool) "tx" true
      (Driver_hardened.transmit drv (Bytes.of_string (Printf.sprintf "frame-%03d" i)));
    Device.poll device;
    ignore (Driver_hardened.poll drv)
  done;
  Alcotest.(check int) "all forwarded in order" 40 (List.length !sent);
  Helpers.check_bytes "last frame" (Bytes.of_string "frame-040") (List.hd !sent);
  for i = 1 to 100 do
    Device.deliver_rx device (Bytes.of_string (Printf.sprintf "in-%03d" i))
  done;
  let received = ref 0 in
  for _ = 1 to 30 do
    Device.poll device;
    let rec drain () =
      match Driver_hardened.poll drv with
      | Some _ ->
          incr received;
          drain ()
      | None -> ()
    in
    drain ()
  done;
  Alcotest.(check int) "all delivered despite ring wrap" 100 !received

let test_tx_ring_full_refuses () =
  let transport, _device, _sent, _ = make_pair () in
  let drv = Driver_hardened.create transport in
  (* Fill all TX slots without letting the device drain. *)
  let accepted = ref 0 in
  for _ = 1 to 100 do
    if Driver_hardened.transmit drv (Bytes.make 64 'x') then incr accepted
  done;
  Alcotest.(check int) "bounded by queue size" (Transport.queue_size transport) !accepted

let test_device_respects_protection () =
  (* A guest descriptor pointing at a revoked page must fault the device,
     not crash it. *)
  let transport, device, _sent, _ = make_pair () in
  let drv = Driver_unhardened.create transport in
  ignore (Driver_unhardened.transmit drv (Bytes.of_string "frame"));
  Region.unshare_range (Transport.region transport)
    ~off:(Transport.tx_buf_offset transport 0)
    ~len:64;
  Device.poll device;
  Alcotest.(check int) "device recorded guest fault" 1 (Device.stats device).Device.guest_faults

(* --- attack-level behaviour (unit versions of the E4 rows) ---------- *)

let test_lie_len_leaks_on_unhardened () =
  let transport, device, _sent, _ = make_pair () in
  let drv = Driver_unhardened.create transport in
  (* Plant a secret in the neighbouring RX buffer. *)
  Region.guest_write (Transport.region transport)
    ~off:(Transport.rx_buf_offset transport 1)
    (Bytes.of_string "TOPSECRET");
  Device.inject device (Device.Lie_used_len 4000);
  Device.deliver_rx device (Bytes.of_string "x");
  Device.poll device;
  match Driver_unhardened.poll drv with
  | Some frame ->
      Alcotest.(check int) "over-read size" 4000 (Bytes.length frame);
      Alcotest.(check bool) "neighbour leaked" true (contains (Bytes.to_string frame) "TOPSECRET")
  | None -> Alcotest.fail "no frame"

let test_lie_len_clamped_on_hardened () =
  let transport, device, _sent, _ = make_pair () in
  let drv = Driver_hardened.create transport in
  Device.inject device (Device.Lie_used_len 4000);
  Device.deliver_rx device (Bytes.of_string "x");
  Device.poll device;
  (match Driver_hardened.poll drv with
  | Some frame ->
      Alcotest.(check bool) "clamped to posted size" true
        (Bytes.length frame <= Transport.buf_size transport)
  | None -> Alcotest.fail "no frame");
  Alcotest.(check int) "clamp recorded" 1 (Driver_hardened.rejects drv).Driver_hardened.len_clamped

let test_race_overflows_unhardened () =
  let transport, device, _sent, _ = make_pair () in
  let drv = Driver_unhardened.create transport in
  Device.inject device (Device.Race_used_len 5000);
  Device.deliver_rx device (Bytes.of_string "x");
  Device.poll device;
  match Driver_unhardened.poll drv with
  | exception Invalid_argument _ -> ()  (* the double fetch overflowed *)
  | Some _ | None -> Alcotest.fail "double fetch must corrupt the unhardened driver"

let test_race_harmless_on_hardened () =
  let transport, device, _sent, _ = make_pair () in
  let drv = Driver_hardened.create transport in
  Device.inject device (Device.Race_used_len 5000);
  Device.deliver_rx device (Bytes.of_string "x");
  Device.poll device;
  match Driver_hardened.poll drv with
  | Some frame -> Helpers.check_bytes "single fetch wins" (Bytes.of_string "x") frame
  | None -> Alcotest.fail "frame lost"

let test_bogus_id_rejected_on_hardened () =
  let transport, device, _sent, _ = make_pair () in
  let drv = Driver_hardened.create transport in
  Device.inject device (Device.Bogus_used_id 5000);
  Device.deliver_rx device (Bytes.of_string "x");
  Device.poll device;
  ignore (Driver_hardened.poll drv);
  Alcotest.(check int) "bad id rejected" 1 (Driver_hardened.rejects drv).Driver_hardened.bad_id

let test_replay_rejected_on_hardened_before_repost () =
  (* A replay of a completion for a slot that is *not* outstanding is a
     temporal violation the shadow state catches. *)
  let transport, device, _sent, _ = make_pair () in
  let drv = Driver_hardened.create transport in
  ignore (Driver_hardened.transmit drv (Bytes.of_string "tx"));
  Device.inject device Device.Replay_completion;
  Device.poll device (* completes TX slot 0, then replays it *);
  ignore (Driver_hardened.poll drv);
  Alcotest.(check int) "stale completion rejected" 1
    (Driver_hardened.rejects drv).Driver_hardened.not_outstanding

let test_chain_loop_livelocks_unhardened () =
  let transport, device, _sent, _ = make_pair () in
  let drv = Driver_unhardened.create transport in
  Device.inject device Device.Desc_chain_loop;
  Device.deliver_rx device (Bytes.of_string "x");
  Device.poll device;
  match Driver_unhardened.poll drv with
  | exception Driver_unhardened.Unbounded_work _ -> ()
  | Some _ | None -> Alcotest.fail "loop must trip the fuse"

let test_double_fetch_hazard_analysis () =
  (* Use the region's double-fetch sanitizer, armed for one poll, as a
     static-analyser stand-in: the unhardened RX path fetches overlapping
     shared words twice per completion (a hazard); the hardened path is
     single-fetch by construction. *)
  let double_fetches hardened =
    let transport, device, _sent, _ = make_pair () in
    let region = Transport.region transport in
    let poll =
      if hardened then
        let drv = Driver_hardened.create transport in
        fun () -> ignore (Driver_hardened.poll drv)
      else
        let drv = Driver_unhardened.create transport in
        fun () -> ignore (Driver_unhardened.poll drv)
    in
    Device.deliver_rx device (Bytes.of_string "probe");
    Device.poll device;
    Region.sanitizer_enable region;
    poll ();
    (Region.sanitizer_stats region).Region.double_fetches
  in
  Alcotest.(check bool) "unhardened has double-fetch hazards" true (double_fetches false > 0);
  Alcotest.(check int) "hardened has none" 0 (double_fetches true)

let test_kicks_and_irqs_counted () =
  let transport, device, _sent, _ = make_pair () in
  let drv = Driver_hardened.create transport in
  let k0 = Driver_hardened.kicks drv in
  ignore (Driver_hardened.transmit drv (Bytes.of_string "x"));
  Alcotest.(check int) "kick per tx" (k0 + 1) (Driver_hardened.kicks drv);
  Device.poll device;
  ignore (Driver_hardened.poll drv);
  Alcotest.(check bool) "irq on completion" (Driver_hardened.irqs drv > 0) true

let suite =
  [
    Alcotest.test_case "vring: bit-accurate layout" `Quick test_vring_layout_bit_accurate;
    Alcotest.test_case "vring: avail/used cross-actor" `Quick test_vring_avail_used_idx;
    Alcotest.test_case "vring: ring positions wrap" `Quick test_vring_ring_positions_wrap;
    Alcotest.test_case "vring: geometry validated" `Quick test_vring_geometry_validated;
    Alcotest.test_case "unhardened: benign tx/rx" `Quick test_unhardened_tx_rx;
    Alcotest.test_case "hardened: benign tx/rx" `Quick test_hardened_tx_rx;
    Alcotest.test_case "drivers: sustained traffic, ring wrap" `Quick test_many_frames_both_directions;
    Alcotest.test_case "drivers: tx ring full" `Quick test_tx_ring_full_refuses;
    Alcotest.test_case "device: guest fault absorbed" `Quick test_device_respects_protection;
    Alcotest.test_case "attack: lie-len leaks (unhardened)" `Quick test_lie_len_leaks_on_unhardened;
    Alcotest.test_case "attack: lie-len clamped (hardened)" `Quick test_lie_len_clamped_on_hardened;
    Alcotest.test_case "attack: race overflows (unhardened)" `Quick test_race_overflows_unhardened;
    Alcotest.test_case "attack: race harmless (hardened)" `Quick test_race_harmless_on_hardened;
    Alcotest.test_case "attack: bogus id rejected (hardened)" `Quick test_bogus_id_rejected_on_hardened;
    Alcotest.test_case "attack: replay rejected (hardened)" `Quick
      test_replay_rejected_on_hardened_before_repost;
    Alcotest.test_case "attack: chain loop fuse (unhardened)" `Quick test_chain_loop_livelocks_unhardened;
    Alcotest.test_case "drivers: notifications counted" `Quick test_kicks_and_irqs_counted;
    Alcotest.test_case "double-fetch hazard analysis" `Quick test_double_fetch_hazard_analysis;
  ]

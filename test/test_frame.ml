(* Codec tests: addresses, checksums, Ethernet/IPv4/UDP/TCP round trips
   and malformed-input rejection. *)

open Cio_frame

let ip_a = Helpers.ip_a
let ip_b = Helpers.ip_b

let test_mac_octets () =
  let m = Addr.mac_of_octets 0xDE 0xAD 0xBE 0xEF 0x00 0x01 in
  Alcotest.(check int) "octet 0" 0xDE (Addr.mac_octet m 0);
  Alcotest.(check int) "octet 5" 0x01 (Addr.mac_octet m 5);
  Alcotest.(check string) "pretty" "de:ad:be:ef:00:01" (Addr.mac_to_string m)

let test_ipv4_string_roundtrip () =
  Alcotest.(check string) "pretty" "10.0.0.1" (Addr.ipv4_to_string ip_a);
  (match Addr.ipv4_of_string "192.168.1.254" with
  | Some ip -> Alcotest.(check string) "parse" "192.168.1.254" (Addr.ipv4_to_string ip)
  | None -> Alcotest.fail "parse failed");
  Alcotest.(check bool) "reject 256" true (Addr.ipv4_of_string "256.0.0.1" = None);
  Alcotest.(check bool) "reject short" true (Addr.ipv4_of_string "10.0.0" = None);
  Alcotest.(check bool) "reject junk" true (Addr.ipv4_of_string "a.b.c.d" = None)

let test_checksum_rfc1071_example () =
  (* Classic example: checksum over 0001 f203 f4f5 f6f7 = 0x220d. *)
  let b = Helpers.hex "0001f203f4f5f6f7" in
  Alcotest.(check int) "rfc1071" 0x220D (Checksum.compute b ~pos:0 ~len:8)

let test_checksum_verify () =
  let b = Helpers.hex "0001f203f4f5f6f7" in
  let csum = Checksum.compute b ~pos:0 ~len:8 in
  let with_csum = Bytes.cat b (Bytes.create 2) in
  Bytes.set_uint16_be with_csum 8 csum;
  Alcotest.(check bool) "verifies" true (Checksum.verify with_csum ~pos:0 ~len:10)

let test_checksum_odd_length () =
  let b = Bytes.of_string "abc" in
  (* Must not raise, and must be stable. *)
  Alcotest.(check int) "stable" (Checksum.compute b ~pos:0 ~len:3) (Checksum.compute b ~pos:0 ~len:3)

let eth_frame payload =
  { Ethernet.dst = Helpers.mac_b; src = Helpers.mac_a; ethertype = Ethernet.Ipv4; payload }

let test_ethernet_roundtrip () =
  let frame = eth_frame (Bytes.make 100 'p') in
  match Ethernet.parse (Ethernet.build frame) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
      Alcotest.(check int) "dst" frame.Ethernet.dst parsed.Ethernet.dst;
      Alcotest.(check int) "src" frame.Ethernet.src parsed.Ethernet.src;
      Helpers.check_bytes "payload" frame.Ethernet.payload parsed.Ethernet.payload

let test_ethernet_pads_short_payload () =
  let built = Ethernet.build (eth_frame (Bytes.of_string "tiny")) in
  Alcotest.(check int) "minimum frame size" (Ethernet.header_len + Ethernet.min_payload)
    (Bytes.length built)

let test_ethernet_truncated_rejected () =
  match Ethernet.parse (Bytes.make 10 'x') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short frame must be rejected"

let test_ethernet_unknown_ethertype () =
  let b = Ethernet.build { (eth_frame Bytes.empty) with Ethernet.ethertype = Ethernet.Unknown 0x1234 } in
  match Ethernet.parse b with
  | Ok { Ethernet.ethertype = Ethernet.Unknown 0x1234; _ } -> ()
  | _ -> Alcotest.fail "unknown ethertype must survive roundtrip"

let ip_packet payload =
  { Ipv4.src = ip_a; dst = ip_b; protocol = Ipv4.Udp; ttl = 64; payload }

let test_ipv4_roundtrip () =
  match Ipv4.parse (Ipv4.build (ip_packet (Bytes.make 64 'd'))) with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int32) "src" ip_a p.Ipv4.src;
      Alcotest.(check int32) "dst" ip_b p.Ipv4.dst;
      Alcotest.(check int) "ttl" 64 p.Ipv4.ttl;
      Alcotest.(check int) "payload" 64 (Bytes.length p.Ipv4.payload)

let test_ipv4_header_checksum_enforced () =
  let b = Ipv4.build (ip_packet (Bytes.of_string "x")) in
  Bytes.set b 8 '\x01' (* mangle TTL without fixing checksum *);
  match Ipv4.parse b with
  | Error "ipv4: header checksum mismatch" -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ e)
  | Ok _ -> Alcotest.fail "corrupted header must be rejected"

let test_ipv4_rejects_fragments () =
  let b = Ipv4.build (ip_packet (Bytes.of_string "x")) in
  (* Set MF bit and fix up the checksum. *)
  Bytes.set_uint16_be b 6 0x2000;
  Bytes.set_uint16_be b 10 0;
  let csum = Checksum.compute b ~pos:0 ~len:20 in
  Bytes.set_uint16_be b 10 csum;
  match Ipv4.parse b with
  | Error "ipv4: fragmentation unsupported" -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ e)
  | Ok _ -> Alcotest.fail "fragment must be rejected"

let test_ipv4_tolerates_link_padding () =
  (* Ethernet pads short packets; the IP total-length field governs. *)
  let b = Ipv4.build (ip_packet (Bytes.of_string "small")) in
  let padded = Bytes.cat b (Bytes.make 20 '\000') in
  match Ipv4.parse padded with
  | Ok p -> Alcotest.(check int) "payload trimmed" 5 (Bytes.length p.Ipv4.payload)
  | Error e -> Alcotest.fail e

let test_ipv4_rejects_bad_version () =
  let b = Ipv4.build (ip_packet Bytes.empty) in
  Bytes.set b 0 '\x65' (* version 6 *);
  match Ipv4.parse b with
  | Error "ipv4: not version 4" -> ()
  | _ -> Alcotest.fail "bad version must be rejected"

let test_udp_roundtrip () =
  let dgram = { Udp.src_port = 5353; dst_port = 53; payload = Bytes.of_string "query" } in
  match Udp.parse ~src_ip:ip_a ~dst_ip:ip_b (Udp.build ~src_ip:ip_a ~dst_ip:ip_b dgram) with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int) "sport" 5353 p.Udp.src_port;
      Alcotest.(check int) "dport" 53 p.Udp.dst_port;
      Helpers.check_bytes "payload" dgram.Udp.payload p.Udp.payload

let test_udp_checksum_includes_pseudo_header () =
  let b = Udp.build ~src_ip:ip_a ~dst_ip:ip_b { Udp.src_port = 1; dst_port = 2; payload = Bytes.of_string "x" } in
  (* The same datagram verified against a different address must fail:
     the pseudo-header binds it to its endpoints. (Swapping src and dst
     would NOT fail — the one's-complement sum is order-independent —
     which is itself worth pinning down.) *)
  let other = Cio_frame.Addr.ipv4_of_octets 10 0 0 3 in
  (match Udp.parse ~src_ip:other ~dst_ip:ip_b b with
  | Error "udp: checksum mismatch" -> ()
  | _ -> Alcotest.fail "pseudo-header must be bound");
  match Udp.parse ~src_ip:ip_b ~dst_ip:ip_a b with
  | Ok _ -> ()  (* order-independence of the internet checksum *)
  | Error e -> Alcotest.fail ("swap unexpectedly failed: " ^ e)

let test_udp_corrupted_rejected () =
  let b = Udp.build ~src_ip:ip_a ~dst_ip:ip_b { Udp.src_port = 1; dst_port = 2; payload = Bytes.of_string "data" } in
  Bytes.set b (Bytes.length b - 1) '\xFF';
  match Udp.parse ~src_ip:ip_a ~dst_ip:ip_b b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corruption must be detected"

let tcp_seg ?(payload = Bytes.empty) ?(mss = None) ?(flags = Tcp_wire.flags_none) () =
  { Tcp_wire.src_port = 1000; dst_port = 2000; seq = 42l; ack = 7l; flags; window = 512; mss; payload }

let test_tcp_roundtrip () =
  let seg = tcp_seg ~payload:(Bytes.of_string "segment data") ~flags:{ Tcp_wire.flags_none with Tcp_wire.ack = true; psh = true } () in
  match Tcp_wire.parse ~src_ip:ip_a ~dst_ip:ip_b (Tcp_wire.build ~src_ip:ip_a ~dst_ip:ip_b seg) with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int32) "seq" 42l p.Tcp_wire.seq;
      Alcotest.(check int32) "ack" 7l p.Tcp_wire.ack;
      Alcotest.(check bool) "ack flag" true p.Tcp_wire.flags.Tcp_wire.ack;
      Alcotest.(check bool) "psh flag" true p.Tcp_wire.flags.Tcp_wire.psh;
      Alcotest.(check int) "window" 512 p.Tcp_wire.window;
      Helpers.check_bytes "payload" seg.Tcp_wire.payload p.Tcp_wire.payload

let test_tcp_mss_option () =
  let seg = tcp_seg ~mss:(Some 1460) ~flags:{ Tcp_wire.flags_none with Tcp_wire.syn = true } () in
  match Tcp_wire.parse ~src_ip:ip_a ~dst_ip:ip_b (Tcp_wire.build ~src_ip:ip_a ~dst_ip:ip_b seg) with
  | Ok p -> Alcotest.(check (option int)) "mss" (Some 1460) p.Tcp_wire.mss
  | Error e -> Alcotest.fail e

let test_tcp_checksum_enforced () =
  let b = Tcp_wire.build ~src_ip:ip_a ~dst_ip:ip_b (tcp_seg ~payload:(Bytes.of_string "x") ()) in
  Bytes.set b (Bytes.length b - 1) 'y';
  match Tcp_wire.parse ~src_ip:ip_a ~dst_ip:ip_b b with
  | Error "tcp: checksum mismatch" -> ()
  | _ -> Alcotest.fail "corruption must be rejected"

let test_tcp_seq_arithmetic_wraps () =
  Alcotest.(check bool) "wrap lt" true (Tcp_wire.seq_lt 0xFFFFFFF0l 5l);
  Alcotest.(check bool) "not lt" false (Tcp_wire.seq_lt 5l 0xFFFFFFF0l);
  Alcotest.(check int32) "add wraps" 4l (Tcp_wire.seq_add 0xFFFFFFFFl 5);
  Alcotest.(check int) "diff across wrap" 21 (Tcp_wire.seq_diff 5l 0xFFFFFFF0l)

let test_tcp_bad_data_offset_rejected () =
  let b = Tcp_wire.build ~src_ip:ip_a ~dst_ip:ip_b (tcp_seg ()) in
  Bytes.set b 12 '\x30' (* data offset 12 bytes < 20 *);
  match Tcp_wire.parse ~src_ip:ip_a ~dst_ip:ip_b b with
  | Error "tcp: bad data offset" -> ()
  | _ -> Alcotest.fail "bad offset must be rejected"

let payload_arb =
  QCheck.make
    ~print:(fun b -> Cio_util.Hex.of_bytes b)
    QCheck.Gen.(map Bytes.of_string (string_size (int_range 0 1400)))

let prop_eth_roundtrip =
  QCheck.Test.make ~name:"ethernet parse . build = id (payload)" ~count:200 payload_arb (fun p ->
      match Ethernet.parse (Ethernet.build (eth_frame p)) with
      | Ok parsed ->
          (* Short payloads come back zero-padded; compare the prefix. *)
          Bytes.length parsed.Ethernet.payload >= Bytes.length p
          && Bytes.equal (Bytes.sub parsed.Ethernet.payload 0 (Bytes.length p)) p
      | Error _ -> false)

let prop_ipv4_roundtrip =
  QCheck.Test.make ~name:"ipv4 parse . build = id" ~count:200 payload_arb (fun p ->
      match Ipv4.parse (Ipv4.build (ip_packet p)) with
      | Ok parsed -> Bytes.equal parsed.Ipv4.payload p
      | Error _ -> false)

let prop_udp_roundtrip =
  QCheck.Test.make ~name:"udp parse . build = id" ~count:200 payload_arb (fun p ->
      match Udp.parse ~src_ip:ip_a ~dst_ip:ip_b
              (Udp.build ~src_ip:ip_a ~dst_ip:ip_b { Udp.src_port = 9; dst_port = 10; payload = p })
      with
      | Ok parsed -> Bytes.equal parsed.Udp.payload p
      | Error _ -> false)

let prop_tcp_roundtrip =
  QCheck.Test.make ~name:"tcp parse . build = id" ~count:200 payload_arb (fun p ->
      match Tcp_wire.parse ~src_ip:ip_a ~dst_ip:ip_b
              (Tcp_wire.build ~src_ip:ip_a ~dst_ip:ip_b (tcp_seg ~payload:p ()))
      with
      | Ok parsed -> Bytes.equal parsed.Tcp_wire.payload p
      | Error _ -> false)

let prop_ipv4_bitflip_rejected_or_equal =
  QCheck.Test.make ~name:"ipv4 header bit flips never parse to wrong metadata" ~count:300
    QCheck.(pair payload_arb (int_bound 159))
    (fun (p, bit) ->
      let b = Ipv4.build (ip_packet p) in
      let byte = bit / 8 in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit mod 8))));
      match Ipv4.parse b with
      | Error _ -> true
      | Ok parsed ->
          (* A flip that still parses can only be one the checksum does
             not cover inconsistently (i.e. it flipped and the checksum
             field compensates); metadata must then be self-consistent. *)
          Bytes.length parsed.Ipv4.payload <= Bytes.length p)

let test_pretty_tcp () =
  let seg =
    Tcp_wire.build ~src_ip:ip_a ~dst_ip:ip_b
      (tcp_seg ~payload:(Bytes.of_string "xy")
         ~flags:{ Tcp_wire.flags_none with Tcp_wire.syn = true }
         ())
  in
  let ip = Ipv4.build { Ipv4.src = ip_a; dst = ip_b; protocol = Ipv4.Tcp; ttl = 64; payload = seg } in
  let frame = Ethernet.build (eth_frame ip) in
  let s = Pretty.frame_summary frame in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("summary mentions " ^ needle) true
        (let n = String.length s and c = String.length needle in
         let rec go i = i + c <= n && (String.equal (String.sub s i c) needle || go (i + 1)) in
         go 0))
    [ "10.0.0.1:1000"; "10.0.0.2:2000"; "S"; "len=2" ]

let test_pretty_degrades () =
  Alcotest.(check bool) "opaque bytes summarised" true
    (String.length (Pretty.frame_summary (Bytes.make 5 '\xAB')) > 0);
  Alcotest.(check bool) "garbage ip summarised" true
    (String.length (Pretty.ip_summary (Bytes.make 40 '\xCD')) > 0)

(* RFC 1071 reference: one byte pair per step, odd byte padded with a
   zero, end-around carries folded at the end. *)
let ref_ones_complement_sum b ~pos ~len ~init =
  let sum = ref init in
  for k = 0 to (len / 2) - 1 do
    sum := !sum + (Char.code (Bytes.get b (pos + (2 * k))) lsl 8) + Char.code (Bytes.get b (pos + (2 * k) + 1))
  done;
  if len land 1 = 1 then sum := !sum + (Char.code (Bytes.get b (pos + len - 1)) lsl 8);
  while !sum > 0xFFFF do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  !sum

(* Random bytes, or all ones to maximise the carries the fold absorbs. *)
let checksum_data_gen =
  QCheck.Gen.(
    map Bytes.of_string (oneof [ string_size (return 1607); return (String.make 1607 '\xFF') ]))

let prop_checksum_matches_reference =
  QCheck.Test.make ~name:"checksum: word-wide sum == byte-pair RFC 1071 reference" ~count:500
    (QCheck.make
       ~print:(fun (pos, len, init, _) -> Printf.sprintf "pos=%d len=%d init=%d" pos len init)
       QCheck.Gen.(
         quad (int_range 0 7)
           (oneof [ int_range 0 64; int_range 0 1600; return 1599; return 1600 ])
           (oneof [ return 0; int_range 0 0xFFFF; int_range 0 0xFFFFFF ])
           checksum_data_gen))
    (fun (pos, len, init, b) ->
      Checksum.ones_complement_sum b ~pos ~len ~init = ref_ones_complement_sum b ~pos ~len ~init)

(* Writing [compute]'s result into a zeroed field at an even offset of
   the range makes [verify] accept the range, at any start. *)
let prop_checksum_compute_verify_roundtrip =
  QCheck.Test.make ~name:"checksum: compute then verify round trip" ~count:300
    (QCheck.make
       ~print:(fun (pos, len, field, _) -> Printf.sprintf "pos=%d len=%d field=%d" pos len field)
       QCheck.Gen.(
         quad (int_range 0 7) (int_range 2 1600) nat (map Bytes.of_string (string_size (return 1607)))))
    (fun (pos, len, field, b) ->
      let field = pos + (2 * (field mod (len / 2))) in
      Bytes.set_uint16_be b field 0;
      Bytes.set_uint16_be b field (Checksum.compute b ~pos ~len);
      Checksum.verify b ~pos ~len)

let suite =
  [
    Alcotest.test_case "addr: mac octets" `Quick test_mac_octets;
    Alcotest.test_case "addr: ipv4 strings" `Quick test_ipv4_string_roundtrip;
    Alcotest.test_case "checksum: rfc1071 example" `Quick test_checksum_rfc1071_example;
    Alcotest.test_case "checksum: verify" `Quick test_checksum_verify;
    Alcotest.test_case "checksum: odd length" `Quick test_checksum_odd_length;
    Alcotest.test_case "ethernet: roundtrip" `Quick test_ethernet_roundtrip;
    Alcotest.test_case "ethernet: minimum padding" `Quick test_ethernet_pads_short_payload;
    Alcotest.test_case "ethernet: truncated rejected" `Quick test_ethernet_truncated_rejected;
    Alcotest.test_case "ethernet: unknown ethertype" `Quick test_ethernet_unknown_ethertype;
    Alcotest.test_case "ipv4: roundtrip" `Quick test_ipv4_roundtrip;
    Alcotest.test_case "ipv4: checksum enforced" `Quick test_ipv4_header_checksum_enforced;
    Alcotest.test_case "ipv4: fragments rejected" `Quick test_ipv4_rejects_fragments;
    Alcotest.test_case "ipv4: link padding tolerated" `Quick test_ipv4_tolerates_link_padding;
    Alcotest.test_case "ipv4: version checked" `Quick test_ipv4_rejects_bad_version;
    Alcotest.test_case "udp: roundtrip" `Quick test_udp_roundtrip;
    Alcotest.test_case "udp: pseudo-header bound" `Quick test_udp_checksum_includes_pseudo_header;
    Alcotest.test_case "udp: corruption rejected" `Quick test_udp_corrupted_rejected;
    Alcotest.test_case "tcp: roundtrip" `Quick test_tcp_roundtrip;
    Alcotest.test_case "tcp: mss option" `Quick test_tcp_mss_option;
    Alcotest.test_case "tcp: checksum enforced" `Quick test_tcp_checksum_enforced;
    Alcotest.test_case "tcp: sequence arithmetic wraps" `Quick test_tcp_seq_arithmetic_wraps;
    Alcotest.test_case "tcp: bad data offset" `Quick test_tcp_bad_data_offset_rejected;
    Alcotest.test_case "pretty: tcp one-liner" `Quick test_pretty_tcp;
    Alcotest.test_case "pretty: degrades gracefully" `Quick test_pretty_degrades;
    Helpers.qtest prop_eth_roundtrip;
    Helpers.qtest prop_ipv4_roundtrip;
    Helpers.qtest prop_udp_roundtrip;
    Helpers.qtest prop_tcp_roundtrip;
    Helpers.qtest prop_ipv4_bitflip_rejected_or_equal;
    Helpers.qtest prop_checksum_matches_reference;
    Helpers.qtest prop_checksum_compute_verify_roundtrip;
  ]

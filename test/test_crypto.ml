(* Crypto tests: published RFC/FIPS vectors plus properties. *)

open Cio_util
open Cio_crypto

let hex = Helpers.hex

(* --- SHA-256 (FIPS 180-4 / RFC 6234 vectors) -------------------------- *)

let sha_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (msg, want) -> Alcotest.(check string) msg want (Sha256.hex_digest_string msg))
    sha_vectors

let test_sha256_million_a () =
  (* RFC 6234 test 3: one million 'a's, exercised through the streaming
     interface in uneven chunks. *)
  let t = Sha256.init () in
  let chunk = Bytes.make 997 'a' in
  let remaining = ref 1_000_000 in
  while !remaining > 0 do
    let n = min 997 !remaining in
    Sha256.feed t chunk ~pos:0 ~len:n;
    remaining := !remaining - n
  done;
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Hex.of_bytes (Sha256.finish t))

let test_sha256_streaming_equals_oneshot () =
  let msg = "the quick brown fox jumps over the lazy dog, repeatedly and at length" in
  let t = Sha256.init () in
  String.iter (fun c -> Sha256.feed_string t (String.make 1 c)) msg;
  Alcotest.(check string) "streaming == one-shot"
    (Hex.of_bytes (Sha256.digest_string msg))
    (Hex.of_bytes (Sha256.finish t))

(* --- HMAC-SHA256 (RFC 4231) ------------------------------------------ *)

let test_hmac_rfc4231_case1 () =
  let key = hex "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b" in
  let tag = Hmac.digest_bytes ~key (Bytes.of_string "Hi There") in
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" (Hex.of_bytes tag)

let test_hmac_rfc4231_case2 () =
  let tag = Hmac.digest_string ~key:"Jefe" "what do ya want for nothing?" in
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" (Hex.of_bytes tag)

let test_hmac_rfc4231_long_key () =
  (* Case 6: 131-byte key, forcing the key-hash path. *)
  let key = Bytes.make 131 '\xaa' in
  let tag =
    Hmac.digest_bytes ~key (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First")
  in
  Alcotest.(check string) "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" (Hex.of_bytes tag)

(* --- HKDF (RFC 5869) --------------------------------------------------- *)

let test_hkdf_rfc5869_case1 () =
  let ikm = hex "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b" in
  let salt = hex "000102030405060708090a0b0c" in
  let info = hex "f0f1f2f3f4f5f6f7f8f9" in
  let prk = Hkdf.extract ~salt ~ikm () in
  Alcotest.(check string) "prk"
    "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5" (Hex.of_bytes prk);
  let okm = Hkdf.expand ~prk ~info ~len:42 in
  Alcotest.(check string) "okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    (Hex.of_bytes okm)

let test_hkdf_rfc5869_case3_no_salt () =
  let ikm = hex "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b" in
  let okm = Hkdf.derive ~ikm ~info:Bytes.empty ~len:42 () in
  Alcotest.(check string) "okm without salt"
    "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
    (Hex.of_bytes okm)

let test_hkdf_expand_limit () =
  let prk = Bytes.make 32 'k' in
  Alcotest.check_raises "over limit" (Invalid_argument "Hkdf.expand: invalid length") (fun () ->
      ignore (Hkdf.expand ~prk ~info:Bytes.empty ~len:(255 * 32 + 1)))

let test_hkdf_expand_label_distinct () =
  let prk = Bytes.make 32 'k' in
  let a = Hkdf.expand_label ~prk ~label:"one" ~context:Bytes.empty ~len:32 in
  let b = Hkdf.expand_label ~prk ~label:"two" ~context:Bytes.empty ~len:32 in
  Alcotest.(check bool) "labels separate domains" false (Bytes.equal a b)

(* --- ChaCha20 (RFC 8439 §2.3.2 / §2.4.2) ----------------------------- *)

let test_chacha20_block_vector () =
  let key = hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = hex "000000090000004a00000000" in
  let block = Chacha20.block ~key ~nonce ~counter:1l in
  Alcotest.(check string) "first 16 bytes" "10f1e7e4d13b5915500fdd1fa32071c4"
    (Hex.of_bytes (Bytes.sub block 0 16))

let sunscreen =
  "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."

let test_chacha20_encrypt_vector () =
  let key = hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = hex "000000000000004a00000000" in
  let ct = Chacha20.encrypt ~counter:1l ~key ~nonce (Bytes.of_string sunscreen) in
  Alcotest.(check string) "ciphertext head" "6e2e359a2568f98041ba0728dd0d6981"
    (Hex.of_bytes (Bytes.sub ct 0 16));
  Alcotest.(check int) "ciphertext length" 114 (Bytes.length ct);
  (* Decrypting with the same parameters must restore the plaintext. *)
  Helpers.check_bytes "decrypts back" (Bytes.of_string sunscreen)
    (Chacha20.decrypt ~counter:1l ~key ~nonce ct)

let test_chacha20_involution () =
  let key = Bytes.make 32 'K' and nonce = Bytes.make 12 'N' in
  let pt = Bytes.of_string "round trip data of odd length.." in
  let back = Chacha20.decrypt ~key ~nonce (Chacha20.encrypt ~key ~nonce pt) in
  Helpers.check_bytes "involution" pt back

let test_chacha20_key_validation () =
  Alcotest.check_raises "short key" (Invalid_argument "Chacha20: key must be 32 bytes") (fun () ->
      ignore (Chacha20.encrypt ~key:(Bytes.make 16 'k') ~nonce:(Bytes.make 12 'n') Bytes.empty))

(* --- Poly1305 (RFC 8439 §2.5.2) -------------------------------------- *)

let test_poly1305_vector () =
  let key = hex "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b" in
  let tag = Poly1305.mac ~key (Bytes.of_string "Cryptographic Forum Research Group") in
  Alcotest.(check string) "tag" "a8061dc1305136c6c22b8baf0c0127a9" (Hex.of_bytes tag)

let test_poly1305_streaming () =
  let key = hex "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b" in
  let t = Poly1305.init ~key in
  Poly1305.feed_bytes t (Bytes.of_string "Cryptographic Forum ");
  Poly1305.feed_bytes t (Bytes.of_string "Research Group");
  Alcotest.(check string) "streaming tag" "a8061dc1305136c6c22b8baf0c0127a9"
    (Hex.of_bytes (Poly1305.finish t))

(* --- AEAD (RFC 8439 §2.8.2) ------------------------------------------ *)

let aead_key = hex "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
let aead_nonce = hex "070000004041424344454647"
let aead_aad = hex "50515253c0c1c2c3c4c5c6c7"

let test_aead_vector () =
  let ct, tag = Aead.encrypt ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad (Bytes.of_string sunscreen) in
  Alcotest.(check string) "tag" "1ae10b594f09e26a7e902ecbd0600691" (Hex.of_bytes tag);
  Alcotest.(check string) "ct head" "d31a8d34648e60db7b86afbc53ef7ec2"
    (Hex.of_bytes (Bytes.sub ct 0 16))

let test_aead_roundtrip () =
  let pt = Bytes.of_string "attack at dawn" in
  let ct, tag = Aead.encrypt ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad pt in
  match Aead.decrypt ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad ~tag ct with
  | Some back -> Helpers.check_bytes "roundtrip" pt back
  | None -> Alcotest.fail "decrypt failed"

let test_aead_rejects_tampered_ciphertext () =
  let ct, tag = Aead.encrypt ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad (Bytes.of_string "data") in
  Bytes.set ct 0 (Char.chr (Char.code (Bytes.get ct 0) lxor 1));
  Alcotest.(check bool) "rejected" true
    (Aead.decrypt ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad ~tag ct = None)

let test_aead_rejects_tampered_aad () =
  let ct, tag = Aead.encrypt ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad (Bytes.of_string "data") in
  let bad_aad = Bytes.copy aead_aad in
  Bytes.set bad_aad 0 'X';
  Alcotest.(check bool) "rejected" true
    (Aead.decrypt ~key:aead_key ~nonce:aead_nonce ~aad:bad_aad ~tag ct = None)

let test_aead_rejects_wrong_nonce () =
  let ct, tag = Aead.encrypt ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad (Bytes.of_string "data") in
  let other = Bytes.copy aead_nonce in
  Bytes.set other 0 '\xFF';
  Alcotest.(check bool) "rejected" true
    (Aead.decrypt ~key:aead_key ~nonce:other ~aad:aead_aad ~tag ct = None)

let test_aead_seal_open () =
  let pt = Bytes.of_string "sealed message" in
  let sealed = Aead.seal ~key:aead_key ~nonce:aead_nonce ~aad:Bytes.empty pt in
  Alcotest.(check int) "sealed length" (Bytes.length pt + Aead.tag_len) (Bytes.length sealed);
  match Aead.open_ ~key:aead_key ~nonce:aead_nonce ~aad:Bytes.empty sealed with
  | Some back -> Helpers.check_bytes "open" pt back
  | None -> Alcotest.fail "open failed"

let test_aead_open_too_short () =
  Alcotest.(check bool) "short input rejected" true
    (Aead.open_ ~key:aead_key ~nonce:aead_nonce ~aad:Bytes.empty (Bytes.make 8 'x') = None)

let test_ct_equal () =
  Alcotest.(check bool) "equal" true (Ct.equal (Bytes.of_string "same") (Bytes.of_string "same"));
  Alcotest.(check bool) "different" false (Ct.equal (Bytes.of_string "same") (Bytes.of_string "sam_"));
  Alcotest.(check bool) "length mismatch" false (Ct.equal (Bytes.of_string "a") (Bytes.of_string "ab"))

let bytes_gen = QCheck.Gen.(map Bytes.of_string (string_size (int_range 0 300)))
let bytes_arb = QCheck.make ~print:(fun b -> Hex.of_bytes b) bytes_gen

let prop_aead_roundtrip =
  QCheck.Test.make ~name:"AEAD decrypt . encrypt = id" ~count:200 bytes_arb (fun pt ->
      let ct, tag = Aead.encrypt ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad pt in
      match Aead.decrypt ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad ~tag ct with
      | Some back -> Bytes.equal back pt
      | None -> false)

let prop_aead_tamper_detected =
  QCheck.Test.make ~name:"AEAD rejects any single-bit flip" ~count:200
    QCheck.(pair bytes_arb small_nat)
    (fun (pt, pos) ->
      QCheck.assume (Bytes.length pt > 0);
      let sealed = Aead.seal ~key:aead_key ~nonce:aead_nonce ~aad:Bytes.empty pt in
      let i = pos mod Bytes.length sealed in
      Bytes.set sealed i (Char.chr (Char.code (Bytes.get sealed i) lxor 0x10));
      Aead.open_ ~key:aead_key ~nonce:aead_nonce ~aad:Bytes.empty sealed = None)

let prop_sha256_streaming_chunking_invariant =
  QCheck.Test.make ~name:"sha256 independent of chunk boundaries" ~count:100
    QCheck.(pair bytes_arb (int_range 1 64))
    (fun (msg, chunk) ->
      let t = Sha256.init () in
      let n = Bytes.length msg in
      let rec feed off =
        if off < n then begin
          let len = min chunk (n - off) in
          Sha256.feed t msg ~pos:off ~len;
          feed (off + len)
        end
      in
      feed 0;
      Bytes.equal (Sha256.finish t) (Sha256.digest_bytes msg))

let prop_hmac_key_sensitivity =
  QCheck.Test.make ~name:"hmac differs under different keys" ~count:100 bytes_arb (fun msg ->
      let a = Hmac.digest_bytes ~key:(Bytes.of_string "key-one") msg in
      let b = Hmac.digest_bytes ~key:(Bytes.of_string "key-two") msg in
      not (Bytes.equal a b))

(* --- Equivalence with the reference oracle (test/crypto_oracle.ml) ---- *)

module Oracle = Crypto_oracle

let key_gen = QCheck.Gen.(map Bytes.of_string (string_size (return 32)))
let nonce_gen = QCheck.Gen.(map Bytes.of_string (string_size (return 12)))

(* Counters cluster just below 2^32 so that multi-block messages wrap. *)
let counter_gen =
  QCheck.Gen.(
    oneof [ map (fun d -> Int32.sub 0xFFFFFFFFl (Int32.of_int d)) (int_range 0 140); map Int32.of_int int ])

let msg_gen =
  QCheck.Gen.(
    map Bytes.of_string (oneof [ string_size (int_range 0 300); string_size (return 8192) ]))

let prop_chacha20_matches_oracle =
  QCheck.Test.make ~name:"chacha20 encrypt == oracle (0-300 B and 8 KiB, counter wrap)" ~count:150
    (QCheck.make
       ~print:(fun (_, _, c, m) -> Printf.sprintf "counter=%lx len=%d" c (Bytes.length m))
       QCheck.Gen.(quad key_gen nonce_gen counter_gen msg_gen))
    (fun (key, nonce, counter, msg) ->
      Bytes.equal
        (Chacha20.encrypt ~counter ~key ~nonce msg)
        (Oracle.Chacha20.encrypt ~counter ~key ~nonce msg)
      && Bytes.equal (Chacha20.block ~key ~nonce ~counter) (Oracle.Chacha20.block ~key ~nonce ~counter))

(* [xor_into] at unaligned offsets, out of place and in place: the bytes
   in range are the oracle's, the bytes around them are untouched. *)
let prop_chacha20_xor_into_offsets =
  QCheck.Test.make ~name:"chacha20 xor_into at offsets 0-7, in and out of place == oracle"
    ~count:300
    (QCheck.make
       ~print:(fun ((_, _, c), m, (so, d)) ->
         Printf.sprintf "counter=%lx len=%d src_off=%d dst_off=%d" c (Bytes.length m) so d)
       QCheck.Gen.(
         triple (triple key_gen nonce_gen counter_gen)
           (map Bytes.of_string (string_size (int_range 0 300)))
           (pair (int_range 0 7) (int_range 0 7))))
    (fun ((key, nonce, counter), msg, (src_off, dst_off)) ->
      let n = Bytes.length msg in
      let expected = Oracle.Chacha20.encrypt ~counter ~key ~nonce msg in
      let framed off fill =
        let b = Bytes.make (off + n + 9) fill in
        Bytes.blit msg 0 b off n;
        b
      in
      let src = framed src_off '\x5A' in
      let src_before = Bytes.copy src in
      let dst = Bytes.make (dst_off + n + 9) '\xC3' in
      Chacha20.xor_into ~counter ~key ~nonce src ~src_off dst ~dst_off ~len:n;
      let inplace = framed src_off '\x5A' in
      Chacha20.xor_into ~counter ~key ~nonce inplace ~src_off inplace ~dst_off:src_off ~len:n;
      let untouched b off fill =
        Bytes.sub_string b 0 off = String.make off fill
        && Bytes.sub_string b (off + n) 9 = String.make 9 fill
      in
      Bytes.equal (Bytes.sub dst dst_off n) expected
      && untouched dst dst_off '\xC3'
      && Bytes.equal src src_before
      && Bytes.equal (Bytes.sub inplace src_off n) expected
      && untouched inplace src_off '\x5A')

(* A message at a random offset inside a larger buffer, fed in random
   chunk sizes, must give the oracle's one-shot tag. *)
let prop_poly1305_chunked_matches_oracle =
  QCheck.Test.make ~name:"poly1305 over unaligned chunk splits == oracle" ~count:200
    (QCheck.make
       ~print:(fun (_, pre, m, cuts) ->
         Printf.sprintf "pre=%d len=%d cuts=[%s]" pre (Bytes.length m)
           (String.concat ";" (List.map string_of_int cuts)))
       QCheck.Gen.(
         quad key_gen (int_range 0 15) (map Bytes.of_string (string_size (int_range 0 600)))
           (list_size (int_range 0 12) (int_range 0 40))))
    (fun (key, pre, msg, cuts) ->
      let n = Bytes.length msg in
      let buf = Bytes.make (pre + n + 7) '\xAA' in
      Bytes.blit msg 0 buf pre n;
      let p = Poly1305.init ~key in
      let rec go off = function
        | c :: rest when off < n ->
            let len = min c (n - off) in
            Poly1305.feed p buf ~pos:(pre + off) ~len;
            go (off + len) rest
        | _ -> Poly1305.feed p buf ~pos:(pre + off) ~len:(n - off)
      in
      go 0 cuts;
      let tag = Bytes.make 20 '\000' in
      Poly1305.finish_into p tag ~off:3;
      Bytes.equal (Bytes.sub tag 3 16) (Oracle.Poly1305.mac ~key msg))

let aead_case_gen =
  QCheck.Gen.(
    quad (pair key_gen nonce_gen)
      (map Bytes.of_string (string_size (int_range 0 40)))
      msg_gen (pair (int_range 1 33) (int_range 1 33)))

let print_aead_case (_, aad, m, (so, d)) =
  Printf.sprintf "aad=%d len=%d src_off=%d dst_off=%d" (Bytes.length aad) (Bytes.length m) so d

let prop_aead_into_matches_seal =
  QCheck.Test.make ~name:"aead seal_into/open_into at offsets == seal/open_ == oracle" ~count:150
    (QCheck.make ~print:print_aead_case aead_case_gen)
    (fun ((key, nonce), aad, pt, (src_off, dst_off)) ->
      let n = Bytes.length pt in
      let sealed = Aead.seal ~key ~nonce ~aad pt in
      let src = Bytes.make (src_off + n + 5) '\x11' in
      Bytes.blit pt 0 src src_off n;
      let wire = Bytes.make (dst_off + n + Aead.tag_len + 5) '\x22' in
      Aead.seal_into ~key ~nonce ~aad src ~src_off ~len:n wire ~dst_off;
      let back = Bytes.make (src_off + n + 5) '\x33' in
      let opened =
        Aead.open_into ~key ~nonce ~aad wire ~src_off:dst_off ~len:(n + Aead.tag_len) back
          ~dst_off:src_off
      in
      (* In place: seal and open within one buffer. *)
      let inplace = Bytes.copy src in
      let inplace_sealed = Bytes.make (src_off + n + Aead.tag_len) '\x00' in
      Bytes.blit inplace 0 inplace_sealed 0 (src_off + n);
      Aead.seal_into ~key ~nonce ~aad inplace_sealed ~src_off ~len:n inplace_sealed ~dst_off:src_off;
      let inplace_ok =
        Bytes.equal (Bytes.sub inplace_sealed src_off (n + Aead.tag_len)) sealed
        && Aead.open_into ~key ~nonce ~aad inplace_sealed ~src_off ~len:(n + Aead.tag_len)
             inplace_sealed ~dst_off:src_off
        && Bytes.equal (Bytes.sub inplace_sealed src_off n) pt
      in
      Bytes.equal sealed (Oracle.Aead.seal ~key ~nonce ~aad pt)
      && Bytes.equal (Bytes.sub wire dst_off (n + Aead.tag_len)) sealed
      && Bytes.sub_string wire 0 dst_off = String.make dst_off '\x22'
      && opened
      && Bytes.equal (Bytes.sub back src_off n) pt
      && Aead.open_ ~key ~nonce ~aad sealed = Some pt
      && inplace_ok)

let prop_aead_open_into_tamper =
  QCheck.Test.make ~name:"aead open_into: any flipped bit -> false, destination untouched" ~count:300
    (QCheck.make
       ~print:(fun (c, bit) -> Printf.sprintf "%s bit=%d" (print_aead_case c) bit)
       QCheck.Gen.(pair aead_case_gen nat))
    (fun (((key, nonce), aad, pt, (src_off, dst_off)), bit) ->
      let n = Bytes.length pt in
      let wire = Bytes.make (src_off + n + Aead.tag_len + 3) '\x44' in
      Aead.seal_into ~key ~nonce ~aad pt ~src_off:0 ~len:n wire ~dst_off:src_off;
      let bit = bit mod (8 * (n + Aead.tag_len)) in
      let i = src_off + (bit / 8) in
      Bytes.set wire i (Char.chr (Char.code (Bytes.get wire i) lxor (1 lsl (bit mod 8))));
      let dst = Bytes.init (dst_off + n + 3) (fun j -> Char.chr (j land 0xFF)) in
      let before = Bytes.copy dst in
      (not (Aead.open_into ~key ~nonce ~aad wire ~src_off ~len:(n + Aead.tag_len) dst ~dst_off))
      && Bytes.equal dst before)

(* --- Allocation: per-call cost must not grow with the message ---------- *)

let minor_words f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. w0)

let test_aead_into_allocation_constant () =
  let key = Bytes.make 32 'k' and nonce = Bytes.make 12 'n' and aad = Bytes.make 5 'a' in
  let words n =
    let src = Bytes.make n 'p' and wire = Bytes.create (n + Aead.tag_len) in
    let back = Bytes.create n in
    let seal () = Aead.seal_into ~key ~nonce ~aad src ~src_off:0 ~len:n wire ~dst_off:0 in
    let open_ () =
      if not (Aead.open_into ~key ~nonce ~aad wire ~src_off:0 ~len:(n + Aead.tag_len) back ~dst_off:0)
      then Alcotest.fail "open_into rejected its own record"
    in
    let s = minor_words seal in
    (s, minor_words open_)
  in
  let s64, o64 = words 64 and s8k, o8k = words 8192 in
  Alcotest.(check int) "seal_into: 64 B and 8 KiB allocate the same" s64 s8k;
  Alcotest.(check int) "open_into: 64 B and 8 KiB allocate the same" o64 o8k;
  let small what w = Alcotest.(check bool) (Printf.sprintf "%s: %d words <= 64" what w) true (w <= 64) in
  small "seal_into" s64;
  small "open_into" o64

let test_poly1305_feed_allocation_free () =
  let p = Poly1305.init ~key:(Bytes.make 32 'r') in
  let data = Bytes.make 8192 'm' in
  (* Odd offsets and lengths exercise the partial-block buffer too. *)
  let feed () =
    Poly1305.feed p data ~pos:3 ~len:4093;
    Poly1305.feed p data ~pos:0 ~len:7
  in
  Alcotest.(check int) "Poly1305.feed allocates nothing" 0 (minor_words feed)

let test_chacha20_xor_into_allocation_free () =
  let key = Bytes.make 32 'k' and nonce = Bytes.make 12 'n' in
  let src = Bytes.make 8200 's' and dst = Bytes.create 8200 in
  (* Whole blocks at unaligned offsets, out of place and in place. *)
  let xor () =
    Chacha20.xor_into ~counter:1l ~key ~nonce src ~src_off:3 dst ~dst_off:5 ~len:8192;
    Chacha20.xor_into ~counter:7l ~key ~nonce dst ~src_off:0 dst ~dst_off:0 ~len:64
  in
  Alcotest.(check int) "xor_into over whole blocks allocates nothing" 0 (minor_words xor)

let suite =
  [
    Alcotest.test_case "sha256: FIPS vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256: million a (streamed)" `Slow test_sha256_million_a;
    Alcotest.test_case "sha256: streaming equals one-shot" `Quick test_sha256_streaming_equals_oneshot;
    Alcotest.test_case "hmac: RFC 4231 case 1" `Quick test_hmac_rfc4231_case1;
    Alcotest.test_case "hmac: RFC 4231 case 2" `Quick test_hmac_rfc4231_case2;
    Alcotest.test_case "hmac: RFC 4231 long key" `Quick test_hmac_rfc4231_long_key;
    Alcotest.test_case "hkdf: RFC 5869 case 1" `Quick test_hkdf_rfc5869_case1;
    Alcotest.test_case "hkdf: RFC 5869 case 3 (no salt)" `Quick test_hkdf_rfc5869_case3_no_salt;
    Alcotest.test_case "hkdf: expand length limit" `Quick test_hkdf_expand_limit;
    Alcotest.test_case "hkdf: label domain separation" `Quick test_hkdf_expand_label_distinct;
    Alcotest.test_case "chacha20: block vector" `Quick test_chacha20_block_vector;
    Alcotest.test_case "chacha20: encryption vector" `Quick test_chacha20_encrypt_vector;
    Alcotest.test_case "chacha20: involution" `Quick test_chacha20_involution;
    Alcotest.test_case "chacha20: key validation" `Quick test_chacha20_key_validation;
    Alcotest.test_case "poly1305: RFC vector" `Quick test_poly1305_vector;
    Alcotest.test_case "poly1305: streaming" `Quick test_poly1305_streaming;
    Alcotest.test_case "aead: RFC 8439 vector" `Quick test_aead_vector;
    Alcotest.test_case "aead: roundtrip" `Quick test_aead_roundtrip;
    Alcotest.test_case "aead: tampered ciphertext" `Quick test_aead_rejects_tampered_ciphertext;
    Alcotest.test_case "aead: tampered aad" `Quick test_aead_rejects_tampered_aad;
    Alcotest.test_case "aead: wrong nonce" `Quick test_aead_rejects_wrong_nonce;
    Alcotest.test_case "aead: seal/open" `Quick test_aead_seal_open;
    Alcotest.test_case "aead: short input" `Quick test_aead_open_too_short;
    Alcotest.test_case "ct: comparison" `Quick test_ct_equal;
    Helpers.qtest prop_aead_roundtrip;
    Helpers.qtest prop_aead_tamper_detected;
    Helpers.qtest prop_sha256_streaming_chunking_invariant;
    Helpers.qtest prop_hmac_key_sensitivity;
    Helpers.qtest prop_chacha20_matches_oracle;
    Helpers.qtest prop_poly1305_chunked_matches_oracle;
    Helpers.qtest prop_aead_into_matches_seal;
    Helpers.qtest prop_aead_open_into_tamper;
    Alcotest.test_case "aead: seal_into/open_into allocation is size-independent" `Quick
      test_aead_into_allocation_constant;
    Alcotest.test_case "poly1305: feed allocates nothing" `Quick test_poly1305_feed_allocation_free;
    Helpers.qtest prop_chacha20_xor_into_offsets;
    Alcotest.test_case "chacha20: whole-block xor_into allocation-free" `Quick
      test_chacha20_xor_into_allocation_free;
  ]

(* ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).

   The L5 record layer's only cipher. Every entry point runs the same two
   cores, [seal_parts] and [open_parts], which read and write caller
   buffers at offsets: a call allocates its output (if the caller did not
   bring one) plus a constant few small blocks, whatever the message
   length. Opening verifies the tag with a branch-free comparison before
   any plaintext is written. *)

let tag_len = 16
let key_len = 32
let nonce_len = 12

(* Zero padding for the MAC input. Shared, and never written. *)
let zeros = Bytes.make 16 '\000'

let check ~fn ~key ~nonce =
  if Bytes.length key <> key_len then invalid_arg (fn ^ ": bad key length");
  if Bytes.length nonce <> nonce_len then invalid_arg (fn ^ ": bad nonce length")

let check_range ~fn buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg (fn ^ ": range out of bounds")

let pad16 p n = if n land 15 <> 0 then Poly1305.feed p zeros ~pos:0 ~len:(16 - (n land 15))

(* The tag over [aad] and the [len] ciphertext bytes of [ct] at [ct_off],
   in bytes 16..31 of a fresh 32-byte block. The block first holds the
   one-time Poly1305 key (keystream block 0, §2.6); once [init] has read
   it, it carries the length block. *)
let tag_block ~key ~nonce ~aad ct ~ct_off ~len =
  let blk = Bytes.make 32 '\000' in
  Chacha20.xor_into ~counter:0l ~key ~nonce blk ~src_off:0 blk ~dst_off:0 ~len:32;
  let p = Poly1305.init ~key:blk in
  Poly1305.feed_bytes p aad;
  pad16 p (Bytes.length aad);
  Poly1305.feed p ct ~pos:ct_off ~len;
  pad16 p len;
  Bytes.set_int64_le blk 0 (Int64.of_int (Bytes.length aad));
  Bytes.set_int64_le blk 8 (Int64.of_int len);
  Poly1305.feed p blk ~pos:0 ~len:16;
  Poly1305.finish_into p blk ~off:16;
  blk

(* Encrypt, then MAC the ciphertext just written. *)
let seal_parts ~key ~nonce ~aad src ~src_off ~len ct ~ct_off tag ~tag_off =
  Chacha20.xor_into ~counter:1l ~key ~nonce src ~src_off ct ~dst_off:ct_off ~len;
  Bytes.blit (tag_block ~key ~nonce ~aad ct ~ct_off ~len) 16 tag tag_off tag_len

(* MAC the ciphertext and compare; decrypt into [dst] only on a match. *)
let open_parts ~key ~nonce ~aad ct ~ct_off ~len tag ~tag_off dst ~dst_off =
  let blk = tag_block ~key ~nonce ~aad ct ~ct_off ~len in
  Ct.equal_sub blk ~a_off:16 tag ~b_off:tag_off ~len:tag_len
  && begin
       Chacha20.xor_into ~counter:1l ~key ~nonce ct ~src_off:ct_off dst ~dst_off ~len;
       true
     end

let seal_into ~key ~nonce ~aad src ~src_off ~len dst ~dst_off =
  let fn = "Aead.seal_into" in
  check ~fn ~key ~nonce;
  check_range ~fn src ~off:src_off ~len;
  check_range ~fn dst ~off:dst_off ~len:(len + tag_len);
  seal_parts ~key ~nonce ~aad src ~src_off ~len dst ~ct_off:dst_off dst ~tag_off:(dst_off + len)

let open_into ~key ~nonce ~aad src ~src_off ~len dst ~dst_off =
  let fn = "Aead.open_into" in
  check ~fn ~key ~nonce;
  check_range ~fn src ~off:src_off ~len;
  len >= tag_len
  &&
  let clen = len - tag_len in
  check_range ~fn dst ~off:dst_off ~len:clen;
  open_parts ~key ~nonce ~aad src ~ct_off:src_off ~len:clen src ~tag_off:(src_off + clen) dst
    ~dst_off

let encrypt ~key ~nonce ~aad plaintext =
  check ~fn:"Aead.encrypt" ~key ~nonce;
  let n = Bytes.length plaintext in
  let ciphertext = Bytes.create n and tag = Bytes.create tag_len in
  seal_parts ~key ~nonce ~aad plaintext ~src_off:0 ~len:n ciphertext ~ct_off:0 tag ~tag_off:0;
  (ciphertext, tag)

let decrypt ~key ~nonce ~aad ~tag ciphertext =
  check ~fn:"Aead.decrypt" ~key ~nonce;
  if Bytes.length tag <> tag_len then None
  else begin
    let n = Bytes.length ciphertext in
    let out = Bytes.create n in
    if open_parts ~key ~nonce ~aad ciphertext ~ct_off:0 ~len:n tag ~tag_off:0 out ~dst_off:0
    then Some out
    else None
  end

let seal ~key ~nonce ~aad plaintext =
  check ~fn:"Aead.encrypt" ~key ~nonce;
  let n = Bytes.length plaintext in
  let out = Bytes.create (n + tag_len) in
  seal_parts ~key ~nonce ~aad plaintext ~src_off:0 ~len:n out ~ct_off:0 out ~tag_off:n;
  out

let open_ ~key ~nonce ~aad sealed =
  let n = Bytes.length sealed - tag_len in
  if n < 0 then None
  else begin
    check ~fn:"Aead.decrypt" ~key ~nonce;
    let out = Bytes.create n in
    if open_parts ~key ~nonce ~aad sealed ~ct_off:0 ~len:n sealed ~tag_off:n out ~dst_off:0
    then Some out
    else None
  end

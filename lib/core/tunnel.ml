(* LightBox-style L2 tunnel: every Ethernet frame is sealed into an AEAD
   blob and padded to a fixed size, so the host and network observe only
   uniform ciphertext at uniform cadence. Format:

     nonce(12) | u16 padded_len | ciphertext( u16 true_len | frame | pad ) | tag

   Both ends seal under the one key, each in its own nonce space: the
   nonce is the sealing end's counter (bytes 0-7) and its direction byte
   (byte 8), so the two directions never share a nonce, and each end
   counts from 1, whatever else ran in the process. An end opens only
   the other end's blobs: one carrying its own direction byte is a
   reflection and is refused before the AEAD runs. *)

open Cio_crypto

type t = { key : bytes; direction : int; mutable counter : int64 }

let pair ~key =
  ({ key; direction = 0; counter = 0L }, { key; direction = 1; counter = 0L })

let header_len = Aead.nonce_len + 2

(* The inner plaintext is laid out in the output buffer and sealed in
   place. *)
let seal t ~pad_to frame =
  let true_len = Bytes.length frame in
  let inner_len = max (2 + true_len) (pad_to - header_len - Aead.tag_len) in
  let out = Bytes.make (header_len + inner_len + Aead.tag_len) '\000' in
  Bytes.set_uint16_le out header_len true_len;
  Bytes.blit frame 0 out (header_len + 2) true_len;
  t.counter <- Int64.add t.counter 1L;
  let nonce = Bytes.make Aead.nonce_len '\000' in
  Bytes.set_int64_le nonce 0 t.counter;
  Bytes.set_uint8 nonce 8 t.direction;
  Bytes.blit nonce 0 out 0 Aead.nonce_len;
  Bytes.set_uint16_le out Aead.nonce_len (inner_len + Aead.tag_len);
  Aead.seal_into ~key:t.key ~nonce ~aad:Bytes.empty out ~src_off:header_len ~len:inner_len out
    ~dst_off:header_len;
  out

let open_ t blob =
  let n = Bytes.length blob in
  if n < header_len + Aead.tag_len || Bytes.get_uint8 blob 8 = t.direction then None
  else begin
    let nonce = Bytes.sub blob 0 Aead.nonce_len in
    let slen = Bytes.get_uint16_le blob Aead.nonce_len in
    if header_len + slen > n || slen < Aead.tag_len then None
    else begin
      let inner = Bytes.create (slen - Aead.tag_len) in
      if
        not
          (Aead.open_into ~key:t.key ~nonce ~aad:Bytes.empty blob ~src_off:header_len ~len:slen
             inner ~dst_off:0)
      then None
      else if Bytes.length inner < 2 then None
      else begin
        let true_len = Bytes.get_uint16_le inner 0 in
        if 2 + true_len > Bytes.length inner then None else Some (Bytes.sub inner 2 true_len)
      end
    end
  end

(* LightBox-style L2 tunnel: every Ethernet frame is sealed into an AEAD
   blob and padded to a fixed size, so the host and network observe only
   uniform ciphertext at uniform cadence. Format:

     nonce(12) | u16 padded_len | ciphertext( u16 true_len | frame | pad ) | tag

   The nonce is a counter kept by the sealing side; the tunnel is
   point-to-point with one key per direction pair, which suffices for the
   observability experiment. *)

open Cio_crypto

let counter = ref 0L

let header_len = Aead.nonce_len + 2

(* The inner plaintext is laid out in the output buffer and sealed in
   place. *)
let seal ~key ~pad_to frame =
  let true_len = Bytes.length frame in
  let inner_len = max (2 + true_len) (pad_to - header_len - Aead.tag_len) in
  let out = Bytes.make (header_len + inner_len + Aead.tag_len) '\000' in
  Bytes.set_uint16_le out header_len true_len;
  Bytes.blit frame 0 out (header_len + 2) true_len;
  counter := Int64.add !counter 1L;
  let nonce = Bytes.make Aead.nonce_len '\000' in
  Bytes.set_int64_le nonce 0 !counter;
  Bytes.blit nonce 0 out 0 Aead.nonce_len;
  Bytes.set_uint16_le out Aead.nonce_len (inner_len + Aead.tag_len);
  Aead.seal_into ~key ~nonce ~aad:Bytes.empty out ~src_off:header_len ~len:inner_len out
    ~dst_off:header_len;
  out

let open_ ~key blob =
  let n = Bytes.length blob in
  if n < header_len + Aead.tag_len then None
  else begin
    let nonce = Bytes.sub blob 0 Aead.nonce_len in
    let slen = Bytes.get_uint16_le blob Aead.nonce_len in
    if header_len + slen > n || slen < Aead.tag_len then None
    else begin
      let inner = Bytes.create (slen - Aead.tag_len) in
      if
        not
          (Aead.open_into ~key ~nonce ~aad:Bytes.empty blob ~src_off:header_len ~len:slen inner
             ~dst_off:0)
      then None
      else if Bytes.length inner < 2 then None
      else begin
        let true_len = Bytes.get_uint16_le inner 0 in
        if 2 + true_len > Bytes.length inner then None else Some (Bytes.sub inner 2 true_len)
      end
    end
  end

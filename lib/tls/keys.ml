(* Key schedule for the L5 channel (TLS-1.3-shaped, PSK-based).

   The pre-shared key stands in for attestation-provisioned secrets: in a
   real CVM deployment the tenant releases the PSK to the TEE only after
   remote attestation, which is exactly how confidential workloads receive
   secrets today (DESIGN.md §1). All derivation is HKDF-SHA256 with
   domain-separated labels. *)

open Cio_crypto

type direction_keys = { key : bytes; iv : bytes }

type t = {
  client : direction_keys;
  server : direction_keys;
  client_finished_key : bytes;
  server_finished_key : bytes;
}

let derive_direction ~prk ~label =
  {
    key = Hkdf.expand_label ~prk ~label:(label ^ " key") ~context:Bytes.empty ~len:Aead.key_len;
    iv = Hkdf.expand_label ~prk ~label:(label ^ " iv") ~context:Bytes.empty ~len:Aead.nonce_len;
  }

let derive ~psk ~client_random ~server_random =
  let early = Hkdf.extract ~ikm:psk () in
  let context = Bytes.cat client_random server_random in
  (* The handshake secret: every key below derives from it, and it is
     not kept afterwards. *)
  let hs = Hkdf.expand_label ~prk:early ~label:"hs" ~context ~len:32 in
  {
    client = derive_direction ~prk:hs ~label:"c ap";
    server = derive_direction ~prk:hs ~label:"s ap";
    client_finished_key = Hkdf.expand_label ~prk:hs ~label:"c fin" ~context:Bytes.empty ~len:32;
    server_finished_key = Hkdf.expand_label ~prk:hs ~label:"s fin" ~context:Bytes.empty ~len:32;
  }

(* Per-record nonce: IV xor big-endian sequence number (RFC 8446 §5.3),
   written into [dst]. *)
let nonce_into ~iv ~seq dst =
  let len = Bytes.length iv in
  if Bytes.length dst <> len || len < 8 then invalid_arg "Keys.nonce_into: bad nonce buffer";
  Bytes.blit iv 0 dst 0 (len - 8);
  Bytes.set_int64_be dst (len - 8) (Int64.logxor (Bytes.get_int64_be iv (len - 8)) (Int64.of_int seq))

let finished_mac ~finished_key ~transcript = Hmac.digest_bytes ~key:finished_key transcript

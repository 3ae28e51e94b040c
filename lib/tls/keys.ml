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

(* Per-record nonce: IV xor big-endian sequence number (RFC 8446 §5.3). *)
let nonce ~iv ~seq =
  let n = Bytes.copy iv in
  let len = Bytes.length n in
  let seqb = Bytes.create 8 in
  Bytes.set_int64_be seqb 0 seq;
  for i = 0 to 7 do
    let j = len - 8 + i in
    Bytes.set n j (Char.chr (Char.code (Bytes.get n j) lxor Char.code (Bytes.get seqb i)))
  done;
  n

let finished_mac ~finished_key ~transcript = Hmac.digest_bytes ~key:finished_key transcript

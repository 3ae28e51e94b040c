(* IDE (Integrity & Data Encryption) link model: PCIe TLPs protected with
   the SPDM-established session key. The crypto runs in hardware on both
   ends, so it costs the TEE's CPU nothing — the performance argument for
   DDA — but the *integrity* guarantee is link-level only: it
   authenticates the device, not the device's honesty. *)

open Cio_util
open Cio_crypto

type t = {
  key : bytes;
  mutable send_seq : int64;
  mutable recv_seq : int64;
  model : Cost.model;
  meter : Cost.meter;
}

let create ?(model = Cost.default) ?meter ~key () =
  if Bytes.length key <> Aead.key_len then invalid_arg "Ide.create: bad key size";
  {
    key;
    send_seq = 0L;
    recv_seq = 0L;
    model;
    meter = (match meter with Some m -> m | None -> Cost.meter ());
  }

let nonce_of_seq seq =
  let n = Bytes.make Aead.nonce_len '\000' in
  Bytes.set_int64_le n 0 seq;
  n

(* Hardware does the AEAD: the TEE is charged only the DMA movement. *)
let seal_tlp t payload =
  let nonce = nonce_of_seq t.send_seq in
  t.send_seq <- Int64.add t.send_seq 1L;
  Cost.charge t.meter Cost.Dma (Cost.dma_cost t.model (Bytes.length payload));
  Aead.seal ~key:t.key ~nonce ~aad:Bytes.empty payload

let open_tlp t sealed =
  let nonce = nonce_of_seq t.recv_seq in
  Cost.charge t.meter Cost.Dma (Cost.dma_cost t.model (Bytes.length sealed));
  match Aead.open_ ~key:t.key ~nonce ~aad:Bytes.empty sealed with
  | Some payload ->
      t.recv_seq <- Int64.add t.recv_seq 1L;
      Some payload
  | None -> None

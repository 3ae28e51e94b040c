(* Direct Device Assignment, end to end (§3.4): attest the device with
   SPDM, then move data over the IDE-protected link with no driver
   hardening at all — the device is in the TCB now.

   E10 reproduces both sides of the paper's assessment: the datapath is
   the cheapest of all designs (hardware crypto, no checks, no bounces),
   and a genuine-but-compromised device defeats it completely, because
   attestation proves identity, not honesty. *)

open Cio_util
open Cio_crypto

type device_behavior = Honest | Compromised  (* passes attestation, then lies *)

type t = {
  device : Spdm.device;
  behavior : device_behavior;
  guest_link : Ide.t;
  device_link : Ide.t;
  meter : Cost.meter;
  mutable transfers : int;
}

type error = Attestation_failed of Spdm.error | Link_tampered

let error_to_string = function
  | Attestation_failed e -> "attestation failed: " ^ Spdm.error_to_string e
  | Link_tampered -> "IDE rejected a tampered TLP"

let reference_measurement = Sha256.digest_string "nic-firmware-v1.0-golden"

let establish ?(behavior = Honest) ?counterfeit:(fake = false) ~rng () =
  let root_key = Bytes.of_string "vendor-root-endorsement-key-32b." in
  let device =
    if fake then Spdm.make_counterfeit ~device_id:"nic0" ~measurement:reference_measurement
    else Spdm.make_device ~root_key ~device_id:"nic0" ~measurement:reference_measurement
  in
  match Spdm.attest ~root_key ~reference_measurements:[ reference_measurement ] ~rng device with
  | Error e -> Error (Attestation_failed e)
  | Ok key ->
      let meter = Cost.meter () in
      Ok
        {
          device;
          behavior;
          guest_link = Ide.create ~meter ~key ();
          device_link = Ide.create ~key ();
          meter;
        transfers = 0;
        }

let meter t = t.meter

(* One round trip: the guest sends a request TLP; the (attested) device
   answers. A compromised device answers with corrupted bytes — through a
   perfectly valid IDE session. *)
let transfer t payload =
  t.transfers <- t.transfers + 1;
  let tlp = Ide.seal_tlp t.guest_link payload in
  match Ide.open_tlp t.device_link tlp with
  | None -> Error Link_tampered
  | Some received ->
      let reply =
        match t.behavior with
        | Honest -> received
        | Compromised ->
            let r = Bytes.copy received in
            if Bytes.length r > 0 then Bytes.set r 0 (Char.chr (Char.code (Bytes.get r 0) lxor 0xFF));
            r
      in
      let reply_tlp = Ide.seal_tlp t.device_link reply in
      (match Ide.open_tlp t.guest_link reply_tlp with
      | None -> Error Link_tampered
      | Some data -> Ok data)

(* Host-in-the-middle on the protected link: flip a ciphertext bit. *)
let transfer_with_host_tamper t payload =
  t.transfers <- t.transfers + 1;
  let tlp = Ide.seal_tlp t.guest_link payload in
  let tampered = Bytes.copy tlp in
  if Bytes.length tampered > 0 then
    Bytes.set tampered 0 (Char.chr (Char.code (Bytes.get tampered 0) lxor 1));
  match Ide.open_tlp t.device_link tampered with
  | None -> Error Link_tampered
  | Some _ -> Ok Bytes.empty

(** SPDM-shaped device attestation with symmetric endorsement (see the
    substitution note in the implementation). *)

open Cio_util

type device

val make_device : root_key:bytes -> device_id:string -> measurement:bytes -> device
val make_counterfeit : device_id:string -> measurement:bytes -> device

type error = Version_mismatch | Bad_signature | Unknown_measurement

val error_to_string : error -> string

val attest :
  root_key:bytes -> reference_measurements:bytes list -> rng:Rng.t -> device -> (bytes, error) result
(** Full verifier flow; [Ok key] is the IDE session key. *)

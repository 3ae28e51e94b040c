(** Direct Device Assignment end to end: SPDM attestation + IDE datapath,
    with the honest / compromised / counterfeit device scenarios of E10. *)

open Cio_util

type device_behavior = Honest | Compromised

type t

type error = Attestation_failed of Spdm.error | Link_tampered

val error_to_string : error -> string

val establish :
  ?behavior:device_behavior ->
  ?counterfeit:bool ->
  rng:Rng.t ->
  unit ->
  (t, error) result
(** Counterfeit devices fail attestation; compromised ones pass it. *)

val meter : t -> Cost.meter

val transfer : t -> bytes -> (bytes, error) result
(** One guest→device→guest round trip over IDE. A compromised device
    corrupts the echo — inside a valid session. *)

val transfer_with_host_tamper : t -> bytes -> (bytes, error) result
(** Host-in-the-middle bit flip on the protected link: always detected. *)

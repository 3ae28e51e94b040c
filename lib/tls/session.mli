(** L5 secure-channel session: PSK handshake, AEAD-protected records,
    strict ordering and replay rejection. All failures are fatal
    (fail-closed; no error-recovery surface); the only way forward is a
    fresh session. *)

open Cio_util

type role = Client | Server

type error =
  | Auth_failed
  | Bad_format of string
  | Bad_state of string
  | Peer_alert

val error_to_string : error -> string

type t

val create :
  ?model:Cost.model ->
  ?meter:Cost.meter ->
  role:role ->
  psk:bytes ->
  psk_id:string ->
  rng:Rng.t ->
  unit ->
  t

val is_established : t -> bool
val records_sent : t -> int
val records_received : t -> int

val initiate : t -> (bytes list, error) result
(** Client only: the opening flight (wire bytes). *)

type feed_result = {
  outputs : bytes list;
  app_data : bytes list;
  err : error option;
}

val feed : t -> bytes -> feed_result
(** Process stream bytes from the (untrusted) transport. *)

val send_data : t -> bytes -> (bytes, error) result
(** Seal one application payload into wire bytes. *)

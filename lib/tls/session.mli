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

val feed_into : t -> bytes -> off:int -> len:int -> bytes Queue.t -> error option
(** [feed_into t src ~off ~len inbox] processes [len] stream bytes of
    [src] from [off], as they come from the (untrusted) transport. Each
    record is opened in place in the session's own buffer; each
    application payload joins [inbox] in a buffer of its own, and
    handshake records to send wait for {!take_flights}. Returns the
    error that killed the session, now or earlier, if any. *)

val take_flights : t -> bytes list
(** Handshake records the session has to send, oldest first, and
    forgets them. *)

val max_payload : int
(** The largest application payload one record carries ([Wire.max_body]
    less the AEAD tag). *)

val send_data_into : t -> bytes -> Byteq.t -> (unit, error) result
(** Seal one application payload as one record straight onto the back of
    the queue. Allocates nothing once the queue has grown to the traffic.
    A payload over {!max_payload} is refused with [Bad_format]; the
    session is left as it was (nothing queued, no sequence number
    used). *)

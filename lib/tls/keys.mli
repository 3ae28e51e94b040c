(** PSK-based key schedule for the L5 channel (HKDF-SHA256 throughout). *)

type direction_keys = { key : bytes; iv : bytes }

type t = {
  client : direction_keys;
  server : direction_keys;
  client_finished_key : bytes;
  server_finished_key : bytes;
}

val derive : psk:bytes -> client_random:bytes -> server_random:bytes -> t

val nonce_into : iv:bytes -> seq:int -> bytes -> unit
(** Per-record nonce: IV xor big-endian sequence (RFC 8446 §5.3), written
    into the buffer, which has the IV's length. Allocates nothing. *)

val finished_mac : finished_key:bytes -> transcript:bytes -> bytes

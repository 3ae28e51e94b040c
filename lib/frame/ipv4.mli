(** IPv4 header codec (no options, no fragmentation), in place. *)

type protocol = Tcp | Unknown of int

val protocol_code : protocol -> int
val protocol_of_code : int -> protocol

type t = {
  src : Addr.ipv4;
  dst : Addr.ipv4;
  protocol : protocol;
  ttl : int;
  payload_off : int;  (** where the payload starts in the decoded buffer *)
  payload_len : int;  (** as the total-length field says, padding excluded *)
}
(** A decoded header and a view of its payload. *)

val header_len : int

val encode :
  bytes ->
  off:int ->
  src:Addr.ipv4 ->
  dst:Addr.ipv4 ->
  protocol:protocol ->
  ttl:int ->
  payload_len:int ->
  unit
(** Write a 20-byte header at [off] with a correct checksum and DF set,
    for a payload of [payload_len] bytes at [off + header_len]. *)

val decode : bytes -> off:int -> len:int -> (t, string) result
(** Decode the packet in [len] bytes at [off]. Rejects bad versions, bad
    lengths, checksum mismatches and fragments. Trailing link-layer
    padding beyond the total length is tolerated. *)

(** IPv4 header codec (no options, no fragmentation), in place. *)

type protocol = Tcp | Unknown of int

val protocol_code : protocol -> int
val protocol_of_code : int -> protocol

type t = {
  mutable src : Addr.ipv4;
  mutable dst : Addr.ipv4;
  mutable protocol : protocol;
  mutable ttl : int;
  mutable payload_off : int;  (** where the payload starts in the decoded buffer *)
  mutable payload_len : int;  (** as the total-length field says, padding excluded *)
}
(** A header and a view of its payload, filled by {!decode}. Its owner
    reuses it packet after packet. *)

val create : unit -> t

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

val decode : t -> bytes -> off:int -> len:int -> (unit, string) result
(** [decode h b ~off ~len] decodes the packet in [len] bytes at [off]
    into [h]. Rejects bad versions, bad lengths, checksum mismatches and
    fragments, leaving [h] as it was. Trailing link-layer padding beyond
    the total length is tolerated. Allocates nothing for a TCP packet. *)

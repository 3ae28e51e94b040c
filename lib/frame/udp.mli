(** UDP codec with pseudo-header checksums, in place. *)

type t = { src_port : int; dst_port : int; payload_off : int; payload_len : int }
(** A decoded header and a view of its payload. *)

val header_len : int

val encode :
  bytes ->
  off:int ->
  src_ip:Addr.ipv4 ->
  dst_ip:Addr.ipv4 ->
  src_port:int ->
  dst_port:int ->
  payload_len:int ->
  unit
(** Write the header at [off] and checksum it together with the
    [payload_len] payload bytes already at [off + header_len]. *)

val decode :
  src_ip:Addr.ipv4 -> dst_ip:Addr.ipv4 -> bytes -> off:int -> len:int -> (t, string) result
(** Decode and checksum the datagram in [len] bytes at [off]. *)

(** TCP segment codec (RFC 9293 wire format; MSS is the only option),
    in place. *)

type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

val flags_none : flags
val pp_flags : Format.formatter -> flags -> unit

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack : int32;
  flags : flags;
  window : int;
  mss : int option;
  payload_off : int;  (** where the payload starts in the buffer that holds it *)
  payload_len : int;
}
(** A segment: its header fields and a view of its payload. A decoded
    segment's view points into the decoded buffer; a segment to send
    says where its payload lies in the sender's store. *)

(** Modular 32-bit sequence arithmetic. *)

val seq_lt : int32 -> int32 -> bool
val seq_leq : int32 -> int32 -> bool
val seq_add : int32 -> int -> int32
val seq_diff : int32 -> int32 -> int

val header_len : t -> int
(** 20 bytes, plus 4 when the segment carries the MSS option. *)

val encode : bytes -> off:int -> src_ip:Addr.ipv4 -> dst_ip:Addr.ipv4 -> t -> unit
(** Write the header at [off] and checksum it together with the
    [payload_len] payload bytes already at [off + header_len t].
    [payload_off] is not read. *)

val decode :
  src_ip:Addr.ipv4 -> dst_ip:Addr.ipv4 -> bytes -> off:int -> len:int -> (t, string) result
(** Decode and checksum the segment in [len] bytes at [off]. *)

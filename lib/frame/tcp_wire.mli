(** TCP segment codec (RFC 9293 wire format; MSS is the only option),
    in place. *)

(** {1 Flags} The five flags the codec knows, as bits of {!t.flags}. *)

val fin : int
val syn : int
val rst : int
val psh : int
val ack : int

val has : int -> int -> bool
(** [has flags f]: is flag [f] set in [flags]? *)

val pp_flags : Format.formatter -> int -> unit
(** The set flags as letters, in the order [SAFRP]. *)

(** {1 Headers} *)

val no_mss : int
(** The {!t.mss} of a segment without the MSS option ([-1]; a wire MSS
    is 16 bits, so every option value stays distinct). *)

type t = {
  mutable src_port : int;
  mutable dst_port : int;
  mutable seq : int;  (** 32 bits *)
  mutable ack : int;  (** 32 bits *)
  mutable flags : int;  (** the known flag bits; others are dropped on decode *)
  mutable window : int;
  mutable mss : int;  (** the MSS option's value, or {!no_mss} *)
  mutable payload_off : int;  (** where the payload starts in the buffer that holds it *)
  mutable payload_len : int;
}
(** A segment: its header fields and a view of its payload. A decoded
    segment's view points into the decoded buffer; a segment to send
    says where its payload lies in the sender's store. Its owner fills
    and reuses one record segment after segment. *)

val create : unit -> t
(** A zeroed header without MSS. *)

(** {1 Modular 32-bit sequence arithmetic}

    Sequence numbers are native ints in [\[0, 2{^32})]; these agree with
    the same operations on [int32]. *)

val seq_lt : int -> int -> bool
val seq_leq : int -> int -> bool
val seq_add : int -> int -> int
val seq_diff : int -> int -> int
(** The signed 32-bit distance from the second number to the first. *)

val header_len : t -> int
(** 20 bytes, plus 4 when the segment carries the MSS option. *)

val encode : bytes -> off:int -> src_ip:Addr.ipv4 -> dst_ip:Addr.ipv4 -> t -> unit
(** Write the header at [off] and checksum it together with the
    [payload_len] payload bytes already at [off + header_len t].
    [payload_off] is not read. *)

val decode :
  t -> src_ip:Addr.ipv4 -> dst_ip:Addr.ipv4 -> bytes -> off:int -> len:int -> (unit, string) result
(** [decode h ~src_ip ~dst_ip b ~off ~len] decodes and checksums the
    segment in [len] bytes at [off] into [h]; on [Error] [h] is left as
    it was. Allocates nothing. *)

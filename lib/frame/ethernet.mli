(** Ethernet II framing, encoded and decoded in place. *)

type ethertype = Ipv4 | Arp | Unknown of int

val ethertype_code : ethertype -> int
val ethertype_of_code : int -> ethertype

type t = {
  mutable dst : Addr.mac;
  mutable src : Addr.mac;
  mutable ethertype : ethertype;
  mutable payload_off : int;  (** where the payload starts in the decoded buffer *)
  mutable payload_len : int;  (** everything after the header, link padding included *)
}
(** A header and a view of its payload, filled by {!decode}. Its owner
    reuses it frame after frame. *)

val create : unit -> t

val header_len : int
val min_payload : int

val frame_len : payload_len:int -> int
(** Length of the frame that carries [payload_len] bytes: the header plus
    the payload zero-padded to the Ethernet minimum, so receivers must
    rely on the inner layer's length field. *)

val encode :
  bytes -> off:int -> dst:Addr.mac -> src:Addr.mac -> ethertype:ethertype -> payload_len:int -> unit
(** Write the header at [off] in front of the [payload_len] payload bytes
    already at [off + header_len], and zero the padding up to
    [off + frame_len ~payload_len]. *)

val decode : t -> bytes -> off:int -> len:int -> (unit, string) result
(** [decode h b ~off ~len] decodes the frame in [len] bytes at [off] into
    [h]. The view is valid as long as the buffer is; on [Error] [h] is
    left as it was. Allocates nothing for an IPv4 or ARP frame. *)

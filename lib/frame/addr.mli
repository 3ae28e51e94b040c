(** MAC (48 bits) and IPv4 (32 bits) addresses, each in a native int. *)

type mac = int

val mac_broadcast : mac
val mac_of_octets : int -> int -> int -> int -> int -> int -> mac
val mac_octet : mac -> int -> int
val pp_mac : Format.formatter -> mac -> unit
val mac_to_string : mac -> string

type ipv4 = int

val ipv4_of_octets : int -> int -> int -> int -> ipv4
val pp_ipv4 : Format.formatter -> ipv4 -> unit
val ipv4_to_string : ipv4 -> string
val ipv4_of_string : string -> ipv4 option

val get_u32 : bytes -> int -> int
(** The big-endian 32-bit word at the offset, as a non-negative int. *)

val set_u32 : bytes -> int -> int -> unit
(** Write the low 32 bits of the int as a big-endian word. *)

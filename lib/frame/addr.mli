(** MAC (48-bit, in a native int) and IPv4 (int32) addresses. *)

type mac = int

val mac_broadcast : mac
val mac_of_octets : int -> int -> int -> int -> int -> int -> mac
val mac_octet : mac -> int -> int
val pp_mac : Format.formatter -> mac -> unit
val mac_to_string : mac -> string

type ipv4 = int32

val ipv4_of_octets : int -> int -> int -> int -> ipv4
val pp_ipv4 : Format.formatter -> ipv4 -> unit
val ipv4_to_string : ipv4 -> string
val ipv4_of_string : string -> ipv4 option

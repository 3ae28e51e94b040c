(** HMAC-SHA256 (RFC 2104). *)

type t

val init : key:bytes -> t
val feed_bytes : t -> bytes -> unit
val finish : t -> bytes

val digest_bytes : key:bytes -> bytes -> bytes
val digest_string : key:string -> string -> bytes

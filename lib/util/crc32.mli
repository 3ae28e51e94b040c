(** CRC-32 (IEEE 802.3): an integrity probe for tests and the benchmark's
    payload digest; no library module calls it. *)

val update : int32 -> bytes -> pos:int -> len:int -> int32
(** [update crc b ~pos ~len] extends [crc] over the given range. Start
    from [0l]. *)

val digest_bytes : bytes -> int32
val digest_string : string -> int32

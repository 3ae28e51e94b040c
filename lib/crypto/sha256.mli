(** SHA-256 (FIPS 180-4). Incremental and one-shot interfaces. *)

type t

val init : unit -> t
val feed : t -> bytes -> pos:int -> len:int -> unit

val finish : t -> bytes
(** 32-byte digest. The state must not be reused afterwards. *)

val digest_bytes : bytes -> bytes
val digest_string : string -> bytes

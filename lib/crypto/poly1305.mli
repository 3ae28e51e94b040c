(** Poly1305 one-time authenticator (RFC 8439 §2.5). *)

type t

val init : key:bytes -> t
(** [key] is the 32-byte one-time key (r || s). *)

val feed : t -> bytes -> pos:int -> len:int -> unit
(** Absorb [len] bytes of the buffer from [pos]. Allocates nothing. *)

val feed_bytes : t -> bytes -> unit

val finish_into : t -> bytes -> off:int -> unit
(** Write the 16-byte tag into the buffer at [off]. The state must not be
    reused afterwards. *)

val finish : t -> bytes
(** 16-byte tag. The state must not be reused afterwards. *)

val mac : key:bytes -> bytes -> bytes

(** Poly1305 one-time authenticator (RFC 8439 §2.5). *)

type t

val init : key:bytes -> t
(** [key] is the 32-byte one-time key (r || s). *)

val reset : t -> bytes -> off:int -> unit
(** [reset t key ~off] starts a new message under the 32-byte one-time
    key at [off] of the buffer, reusing [t]'s storage: the state is as
    {!init} would make it. Allocates nothing. *)

val feed : t -> bytes -> pos:int -> len:int -> unit
(** Absorb [len] bytes of the buffer from [pos]. Allocates nothing. *)

val finish_into : t -> bytes -> off:int -> unit
(** Write the 16-byte tag into the buffer at [off]. The state must not be
    reused afterwards, except through {!reset}. *)

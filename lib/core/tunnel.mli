(** LightBox-style L2 tunnel: frames sealed into fixed-size AEAD blobs so
    the host observes only uniform ciphertext. *)

type t
(** One end of a tunnel. *)

val pair : key:bytes -> t * t
(** The two ends of one tunnel under [key]. Each end seals in a nonce
    space of its own (its own counter, from 1, and its own direction
    byte), so the two directions never emit the same nonce and an end's
    blobs depend only on what it sealed before. *)

val seal : t -> pad_to:int -> bytes -> bytes
(** The frame sealed into a blob of at least [pad_to] bytes. *)

val open_ : t -> bytes -> bytes option
(** The frame of a blob the other end sealed under this end's key, or
    [None] when it does not authenticate. A blob this end sealed itself
    (a host reflecting it back) is refused without running the AEAD. *)

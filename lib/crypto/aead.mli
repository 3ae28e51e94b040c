(** ChaCha20-Poly1305 AEAD (RFC 8439 §2.8). *)

val tag_len : int
val key_len : int
val nonce_len : int

val encrypt : key:bytes -> nonce:bytes -> aad:bytes -> bytes -> bytes * bytes
(** [(ciphertext, tag)]. *)

val decrypt : key:bytes -> nonce:bytes -> aad:bytes -> tag:bytes -> bytes -> bytes option
(** [None] on authentication failure; no plaintext is released. *)

val seal : key:bytes -> nonce:bytes -> aad:bytes -> bytes -> bytes
(** Ciphertext with the tag appended. *)

val open_ : key:bytes -> nonce:bytes -> aad:bytes -> bytes -> bytes option

val seal_into :
  key:bytes -> nonce:bytes -> aad:bytes -> bytes -> src_off:int -> len:int -> bytes -> dst_off:int -> unit
(** [seal_into ~key ~nonce ~aad src ~src_off ~len dst ~dst_off] writes the
    [len]-byte ciphertext of [src] from [src_off], then the tag, into [dst]
    at [dst_off] ([len + tag_len] bytes). [src] and [dst] may be the same
    buffer at the same offset. Raises [Invalid_argument] on a bad key,
    nonce or range. *)

val open_into :
  key:bytes -> nonce:bytes -> aad:bytes -> bytes -> src_off:int -> len:int -> bytes -> dst_off:int -> bool
(** [open_into ~key ~nonce ~aad src ~src_off ~len dst ~dst_off] checks the
    ciphertext-and-tag at [src_off] ([len] bytes, tag last) and, only if
    the tag matches, writes the [len - tag_len] plaintext bytes into [dst]
    at [dst_off]. Returns [false], with [dst] untouched, on authentication
    failure or when [len < tag_len]. In-place use as for {!seal_into}. *)

type scratch
(** Working memory for one AEAD call at a time: blocks, MAC state and a
    keystream buffer. A holder that seals or opens in sequence reuses one. *)

val scratch : unit -> scratch

val seal_with :
  scratch ->
  key:bytes -> nonce:bytes -> aad:bytes -> bytes -> src_off:int -> len:int -> bytes -> dst_off:int -> unit
(** {!seal_into} in the given scratch. Allocates nothing. *)

val open_with :
  scratch ->
  key:bytes -> nonce:bytes -> aad:bytes -> bytes -> src_off:int -> len:int -> bytes -> dst_off:int -> bool
(** {!open_into} in the given scratch. Allocates nothing. *)

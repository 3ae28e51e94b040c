(** ChaCha20 stream cipher (RFC 8439). *)

val block : key:bytes -> nonce:bytes -> counter:int32 -> bytes
(** One 64-byte keystream block. [key] is 32 bytes, [nonce] 12 bytes. *)

val xor_into :
  counter:int32 ->
  key:bytes ->
  nonce:bytes ->
  bytes ->
  src_off:int ->
  bytes ->
  dst_off:int ->
  len:int ->
  unit
(** [xor_into ~counter ~key ~nonce src ~src_off dst ~dst_off ~len] writes
    [len] bytes of [src] from [src_off], XORed with the keystream starting
    at block [counter], into [dst] at [dst_off]. The block counter wraps
    mod 2{^32}. [src] and [dst] may be the same buffer at the same offset
    (in place); other overlaps are not supported. Allocates nothing when
    [len] is a multiple of 64, and one 64-byte keystream buffer
    otherwise. *)

val xor_into_with :
  ks:bytes ->
  counter:int32 ->
  key:bytes ->
  nonce:bytes ->
  bytes ->
  src_off:int ->
  bytes ->
  dst_off:int ->
  len:int ->
  unit
(** {!xor_into} with [ks], at least 64 bytes, as the keystream buffer
    of a last partial block (overwritten; untouched when [len] is a
    multiple of 64). Allocates nothing. *)

val block_into : key:bytes -> nonce:bytes -> counter:int32 -> bytes -> dst_off:int -> unit
(** {!block} written into the buffer at [dst_off]. Allocates nothing. *)

val encrypt : ?counter:int32 -> key:bytes -> nonce:bytes -> bytes -> bytes
(** XOR with the keystream starting at [counter] (default 1, the AEAD
    convention). *)

val decrypt : ?counter:int32 -> key:bytes -> nonce:bytes -> bytes -> bytes
(** Identical to [encrypt]; the cipher is an involution. *)

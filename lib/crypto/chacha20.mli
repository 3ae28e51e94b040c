(** ChaCha20 stream cipher (RFC 8439). *)

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
(** [xor_into_with ~ks ~counter ~key ~nonce src ~src_off dst ~dst_off
    ~len] writes [len] bytes of [src] from [src_off], XORed with the
    keystream starting at block [counter], into [dst] at [dst_off]. [key]
    is 32 bytes, [nonce] 12 bytes. The block counter wraps mod 2{^32}.
    [src] and [dst] may be the same buffer at the same offset (in place);
    other overlaps are not supported. [ks], at least 64 bytes, is the
    keystream buffer of a last partial block (overwritten; untouched when
    [len] is a multiple of 64). Allocates nothing. *)

val block_into : key:bytes -> nonce:bytes -> counter:int32 -> bytes -> dst_off:int -> unit
(** One 64-byte keystream block, written into the buffer at [dst_off].
    Allocates nothing. *)

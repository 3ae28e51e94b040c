(** RFC 1071 Internet checksum. *)

val ones_complement_sum : bytes -> pos:int -> len:int -> init:int -> int
(** Folded 16-bit one's-complement sum of the range, accumulated onto
    [init]. *)

val finish : int -> int
(** One's-complement of a folded sum. *)

val compute : bytes -> pos:int -> len:int -> int
(** Checksum of a range (with the checksum field zeroed by the caller). *)

val verify : bytes -> pos:int -> len:int -> bool
(** True iff the range (including its checksum field) sums to 0xFFFF. *)

val pseudo_sum : src:int -> dst:int -> proto:int -> length:int -> int
(** Folded sum of the 12-byte IPv4 pseudo-header for TCP checksums,
    to pass as [init], from the low 32 bits of each address. Computed
    arithmetically; allocates nothing. *)

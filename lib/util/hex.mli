(** Hex encoding and decoding (whitespace-tolerant, for RFC test vectors). *)

val of_bytes : bytes -> string

val to_bytes : string -> bytes
(** Raises [Invalid_argument] on non-hex input or odd digit count.
    Whitespace is ignored. *)

(** HKDF-SHA256 (RFC 5869) plus TLS-1.3-style labelled expansion. *)

val extract : ?salt:bytes -> ikm:bytes -> unit -> bytes
(** Pseudorandom key from input keying material. Default salt is 32 zero
    bytes. *)

val derive : ?salt:bytes -> ikm:bytes -> info:bytes -> len:int -> unit -> bytes
(** [extract], then HKDF-Expand to [len] bytes. Raises [Invalid_argument]
    if [len > 255 * 32]. *)

val expand_label : prk:bytes -> label:string -> context:bytes -> len:int -> bytes
(** HKDF-Expand-Label with a simulator-scoped protocol prefix. *)

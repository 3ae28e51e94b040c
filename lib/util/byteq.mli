(** Byte FIFO: append at the back, consume from the front without
    re-copying what is left. *)

type t

val create : int -> t
(** An empty queue with room for about [n] bytes before it grows. *)

val length : t -> int

val add_subbytes : t -> bytes -> int -> int -> unit
(** [add_subbytes q b pos n] appends [n] bytes of [b] from [pos]. *)

val add_bytes : t -> bytes -> unit

val get : t -> int -> char
(** [get q i] is the [i]-th queued byte (0 is the front). *)

val drop : t -> int -> unit
(** Discard [n] bytes from the front. *)

val take : t -> int -> bytes
(** Remove [n] bytes from the front and return them in a fresh buffer. *)

val consume : t -> (bytes -> int -> int -> int) -> int
(** [consume q f] calls [f buf off len] on the queued bytes in place
    ([buf] is the queue's own storage: [f] must not keep or write it) and
    drops the number of bytes [f] returns, which it also returns. *)

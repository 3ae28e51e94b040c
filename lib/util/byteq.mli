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

val blit : t -> src_off:int -> bytes -> dst_off:int -> len:int -> unit
(** [blit q ~src_off dst ~dst_off ~len] copies the [len] queued bytes
    from position [src_off] (0 is the front) into [dst] at [dst_off],
    leaving the queue as it was. *)

val drop : t -> int -> unit
(** Discard [n] bytes from the front. *)

val take : t -> int -> bytes
(** Remove [n] bytes from the front and return them in a fresh buffer. *)

val transfer : t -> t -> int -> unit
(** [transfer q dst n] moves the [n] front bytes of [q] to the back of
    [dst]. *)

val extend : t -> int -> int
(** [extend q n] appends [n] bytes, left for the caller to write, and
    returns where they start in {!storage}. *)

val retract : t -> int -> unit
(** Discard [n] bytes from the back: undoes an {!extend} whose bytes
    the caller could not fill. *)

val storage : t -> bytes
(** The queue's own buffer: the queued bytes are its [length q] bytes
    from {!front}. Valid until the next append, which may move them. A
    caller may read it in place and write only bytes it has just
    {!extend}ed. *)

val front : t -> int
(** Offset of the front byte in {!storage}. *)

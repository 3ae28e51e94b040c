(** Value FIFO over one growable circular array: no allocation per
    value once the array has grown to the queue's high-water mark. *)

type 'a t

val create : 'a -> 'a t
(** An empty queue. The filler value occupies cells that hold no queued
    value; it is never returned. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the back. *)

val pop : 'a t -> 'a
(** Remove and return the front value. Raises [Invalid_argument] on an
    empty queue. *)

val get : 'a t -> int -> 'a
(** [get q i] is the [i]-th queued value (0 is the front), left queued.
    Raises [Invalid_argument] unless [0 <= i < length q]. *)

val insert : 'a t -> int -> 'a -> unit
(** [insert q i x] puts [x] at position [i] (0 is the front, [length q]
    the back), moving the values from [i] on back by one. Raises
    [Invalid_argument] unless [0 <= i <= length q]. *)

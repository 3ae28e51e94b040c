(** Layer spans recorded from the benchmark's own files, around the calls
    into each layer's public functions.

    Each span measures wall time, minor-heap words and simulated cycles
    between its entry and exit. A layer is charged its span's {e self}
    amount: the span's total minus the part its child spans cover, so
    nested layers (the engine delivering a frame into the host model,
    the stack calling the driver) are never counted twice. Nothing
    allocates per span beyond what the caller's closure does. *)

type layer = private {
  name : string;
  mutable calls : int;
  mutable self_ns : int;
  mutable self_words : int;
  mutable self_cycles : int;
}

type t

val create :
  ?clock:(unit -> int) -> ?words:(unit -> int) -> cycles:(unit -> int) -> unit -> t
(** [clock] returns nanoseconds (default: the monotonic clock), [words]
    the minor words allocated so far (default: [Gc.minor_words]),
    [cycles] the simulated-cycle total of the meter being attributed. *)

val layer : t -> string -> layer
(** The layer of that name, registered on first use. *)

val layers : t -> layer list
(** Every registered layer, in registration order. *)

val span : t -> layer -> (unit -> 'a) -> 'a
(** Run the function inside a span of [layer]. Spans nest; an exception
    closes the span before it propagates. *)

val reset : t -> unit
(** Zero every layer's tallies (spans still open keep running). *)

val total_self_ns : t -> int
val total_self_cycles : t -> int

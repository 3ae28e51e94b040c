(** The one-shot fault queue every host device model shares.

    A host model queues the faults it has been told to commit; each hook
    point in its datapath takes the oldest queued fault it can apply.
    Queued faults therefore land in injection order, one per hook point
    that fires. *)

type 'a queue

val queue : unit -> 'a queue

val push : 'a queue -> 'a -> unit
(** Queue a fault behind every fault already queued. *)

val is_empty : 'a queue -> bool

val take : 'a queue -> ('a -> 'b option) -> 'b option
(** [take q applies] removes the oldest queued fault for which [applies]
    returns [Some _] and returns that result; [None] (and [q] unchanged)
    when no queued fault applies at this hook point. *)

val race_word : Region.t -> watch:int -> off:int -> int -> unit
(** [race_word region ~watch ~off v] writes [v] as the u32 at [off], as
    the [Host], the instant the guest next fetches shared memory starting
    at [watch]: a deterministic model of a host core racing the guest
    between two fetches of the same field. *)

(** Circuit breaker over host health: Closed -> Open after [threshold]
    consecutive failures, Half_open probe after [cooldown] {!allow}
    consultations, re-closed by any success. Each breaker owns its state
    and counts its own edges ({!transitions}). *)

type state = Closed | Open | Half_open

val state_name : state -> string

type t

val create : threshold:int -> cooldown:int -> t
(** [threshold] consecutive failures to open; [cooldown] Open-state
    {!allow} calls before a Half_open probe. *)

val failure : t -> unit
(** Record one failed observation window (e.g. a watchdog trip or a
    ring-full window with no consumption). *)

val success : t -> unit
(** Record health evidence. Re-closes the breaker from any state and
    zeroes the consecutive-failure count. *)

val allow : t -> bool
(** May recovery work proceed? Closed and Half_open: yes. Open: counts
    down the cooldown; the call that exhausts it transitions to
    Half_open and grants the probe. *)

val state : t -> state
val transitions : t -> int
val consecutive_failures : t -> int

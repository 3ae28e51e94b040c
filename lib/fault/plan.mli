(** Deterministic, seed-derived fault plans covering every layer of the
    dual-boundary datapath: host device model (modal stalls + header
    sabotage), link adversary, TLS record tampering, and I/O-stack
    compartment crash. *)

type kind =
  | Host_stall of int
  | Host_ring_freeze of int
  | Host_silent_drop of int
  | Host_lie_len of int
  | Host_bad_index of int
  | Host_garbage_state of int
  | Host_race_header of int
  | Host_corrupt_payload
  | Host_replay_slot
  | Link_burst of int
  | Record_tamper
  | Stack_crash of int

type injection = { at_step : int; kind : kind }

type t = { seed : int64; injections : injection list }

val kind_name : kind -> string
val pp_kind : Format.formatter -> kind -> unit

val generate : ?count:int -> seed:int64 -> unit -> t
(** Derive a plan from [seed] alone. The first [6] faults cover one of
    each layer class (order shuffled by the seed); extras are drawn at
    random. Injections start near step 6000 and are spaced 26000 pump
    steps apart so each fault resolves before the next lands. *)

val pp : Format.formatter -> t -> unit

(** Deterministic, seed-derived fault plans covering every layer of the
    dual-boundary datapath: host device model (modal stalls + header
    sabotage), link adversary, TLS record tampering, and I/O-stack
    compartment crash. *)

type kind =
  | Host of Cio_cionet.Host_model.misbehavior
      (** a fault from the cionet host model's menu, injected as is *)
  | Link_burst of int
  | Record_tamper
  | Stack_crash of int

type injection = { at_step : int; kind : kind }

type t = { seed : int64; injections : injection list }

val pp_kind : Format.formatter -> kind -> unit

val generate : ?count:int -> seed:int64 -> unit -> t
(** Derive a plan from [seed] alone. The first [6] faults cover one of
    each layer class (order shuffled by the seed); extras are drawn at
    random. Injections start near step 6000 and are spaced 26000 pump
    steps apart so each fault resolves before the next lands. *)

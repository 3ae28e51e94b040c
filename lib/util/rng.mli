(** Deterministic SplitMix64 pseudo-random generator.

    All randomness in the simulator flows through an explicit [t] so every
    experiment is reproducible from its seed. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). Raises
    [Invalid_argument] if [bound <= 0]. *)

val bool : t -> bool

val float : t -> float
(** Uniform draw from [0, 1). *)

val range : t -> lo:int -> hi:int -> int
(** Inclusive range draw. *)

val bytes : t -> int -> bytes
(** [bytes t n] is an [n]-byte uniformly random payload. *)

val pick : t -> 'a array -> 'a
(** Uniform choice. Raises [Invalid_argument] on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

(** Branch-free byte comparison for MAC/tag verification. *)

val equal : bytes -> bytes -> bool

val equal_sub : bytes -> a_off:int -> bytes -> b_off:int -> len:int -> bool
(** Compare [len] bytes of each buffer from the given offsets. *)

(** The benchmark's output: one readable line per metric, then the result
    as a single JSON object on the last line of standard output. *)

type metric = { name : string; value : float; unit_ : string }

val metric : string -> string -> float -> metric
(** [metric name unit value]. *)

val number : float -> string
(** A JSON number with every significant digit. Raises
    [Invalid_argument] on NaN or infinity, which JSON cannot carry. *)

val string : string -> string
(** A JSON string literal. *)

val result_line : correct:bool -> attempted:int -> failed:int -> metric list -> string
(** [{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}] *)

val object_line : (string * string) list -> string
(** A JSON object from keys and already-encoded values. *)

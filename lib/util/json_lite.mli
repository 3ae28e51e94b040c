(** Minimal JSON reader/writer: the repository's one JSON string escaper
    and the read side of the lint baseline. Parses the full grammar;
    intended for small trusted inputs (the committed baseline), not
    untrusted network data. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val of_string : string -> t
val of_file : string -> t

val member : string -> t -> t option
val to_list : t -> t list option
val to_string_opt : t -> string option
val to_int_opt : t -> int option

val escape : Buffer.t -> string -> unit
(** Append [s] as the body of a JSON string literal (no surrounding
    quotes): quote, backslash and control bytes are escaped, everything
    else is copied byte for byte. *)

val write : Buffer.t -> t -> unit
val to_string : t -> string

(** Record framing and a defensive record splitter for the untrusted byte
    stream the I/O stack delivers. *)

type content_type = Handshake | Data | Alert

val content_code : content_type -> int
val content_name : content_type -> string

val header_len : int
val max_body : int

type record = { ctype : content_type; body : bytes }

val header : ctype:content_type -> len:int -> bytes
val encode : record -> bytes

type splitter

val splitter : unit -> splitter

type split_result = Records of record list | Malformed of string

val feed : splitter -> bytes -> split_result
(** Accumulate stream bytes; emit complete records. Malformed input
    poisons the splitter permanently (fail-closed, no error recovery
    path). *)

(** Record framing and a defensive record splitter for the untrusted byte
    stream the I/O stack delivers. *)

type content_type = Handshake | Data | Alert

val content_name : content_type -> string

val header_len : int
val max_body : int

type record = { ctype : content_type; body : bytes }

val write_header : bytes -> off:int -> ctype:content_type -> len:int -> unit
(** Write a record header for a [len]-byte body into the buffer at [off]. *)

val encode : record -> bytes

type splitter

val splitter : unit -> splitter

val push : splitter -> bytes -> off:int -> len:int -> string option
(** [push sp src ~off ~len] appends [len] stream bytes of [src] from
    [off] and validates the header of every record that is now complete,
    and of the first incomplete one once its header is in. Returns the
    reason when one is malformed: the splitter is then poisoned for good
    (fail-closed, no error recovery path) and none of the records this
    push completed is handed out. Allocates nothing on the accepting
    path once the buffer has grown to the traffic. *)

type view = private {
  mutable kind : content_type;
  mutable buf : bytes;
  mutable off : int;
  mutable len : int;
}
(** A complete record in place: its body is the [len] bytes of [buf]
    from [off]. *)

val next : splitter -> bool
(** Hand out the oldest complete, validated record as the splitter's
    {!view}; [false] when there is none or the splitter is poisoned.
    The view is valid until the next {!next} or {!push}. *)

val view : splitter -> view

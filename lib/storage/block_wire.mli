(** Stateless block-I/O wire format for the safe-ring storage boundary. *)

type op = Read | Write

val op_code : op -> int
val op_of_code : int -> op option

type status = Ok_ | Error_

val status_code : status -> int
val status_of_code : int -> status option

val header_len : int

(** {2 In place}

    A message is a [header_len]-byte header at offset 0 followed by its
    payload. *)

val put_header : bytes -> code:int -> lba:int -> len:int -> unit
(** Write an op or status [code], an lba and a payload length. *)

val code : bytes -> int
(** The op or status code byte. *)

val lba : bytes -> int

val payload_len : bytes -> int
(** The payload length the header claims, or [-1] when the message is
    shorter than a header or the header claims a negative lba, a
    negative length or more payload than the message holds. The codes
    are not checked. *)

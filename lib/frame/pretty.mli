(** One-line frame decoding for traces and demos. *)

val frame_summary : bytes -> string
(** Ethernet → IPv4 → TCP one-liner; degrades gracefully on
    unparseable input. *)

val ip_summary : bytes -> string

(** Minimal file layer over the block client, in two protection modes:
    [Plain] (trusts the block boundary) and [Sealed] (fscrypt-style
    per-block AEAD bound to lba + guest-private version: corruption,
    remapping and rollback all fail closed). *)

type mode = Plain | Sealed of bytes

type t

type error = Not_found_ | No_space | Io_error of string | Integrity of string

val error_to_string : error -> string

val create : dev:Blockdev.t -> mode:mode -> t

val chunk : t -> int
(** File bytes per block: [Blockdev.block_size] in [Plain] mode, less
    the sealing overhead in [Sealed] mode. *)

val write_file : t -> name:string -> bytes -> (unit, error) result
(** Replace semantics. *)

val read_file : t -> name:string -> (bytes, error) result
val delete : t -> string -> (unit, error) result
val list_files : t -> (string * int) list
val meter : t -> Cio_util.Cost.meter

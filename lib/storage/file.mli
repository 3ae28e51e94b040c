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

val write_sub : t -> name:string -> bytes -> off:int -> len:int -> (unit, error) result
(** [write_file] of the [len] bytes of a buffer at [off]. *)

val read_file : t -> name:string -> (bytes, error) result

val read_into : t -> name:string -> bytes -> (int, error) result
(** [read_into t ~name dst] reads file [name] into the start of [dst]
    and returns how many bytes it placed: the file's size, unless a
    sealed block held less. Nothing is placed past the file's size,
    however long [dst] is. Raises [Invalid_argument] when [dst] is
    shorter than the file. *)

val delete : t -> string -> (unit, error) result
val list_files : t -> (string * int) list
val meter : t -> Cio_util.Cost.meter

(** The §3.3 ternary model for storage: app-domain whole-file sealing over
    a quarantined file layer over the safe-ring block device. *)

open Cio_util
open Cio_compartment

type t

type error = Store_error of File.error | Integrity of string

val error_to_string : error -> string

val create : dev:Blockdev.t -> key:bytes -> unit -> t

val world : t -> Compartment.t
val app_domain : t -> Compartment.domain
val store_domain : t -> Compartment.domain
val meter : t -> Cost.meter
val crossings : t -> int

val write_file : t -> name:string -> bytes -> (unit, error) result
val read_file : t -> name:string -> (bytes, error) result
val delete : t -> name:string -> (unit, error) result
val list_files : t -> (string * int) list

val rogue_store_reads_app_memory : t -> [ `Leaked | `Denied ]
(** The multi-stage property, storage edition. *)

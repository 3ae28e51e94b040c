(** Block device over the safe ring (§3.3 low-level storage boundary),
    with a host disk model carrying the same misbehaviour classes as the
    network devices. *)

open Cio_util

val block_size : int

type misbehavior = Corrupt_block | Lie_response_len | Wrong_lba | Replay_response

type disk
type t

val create : name:string -> blocks:int -> unit -> t * disk

val disk_inject : disk -> misbehavior -> unit

val disk_access_log : disk -> (Block_wire.op * int) list
(** (op, lba) per request, oldest first: the access-pattern side channel a
    passive host keeps even when block contents are sealed. *)

val disk_clear_log : disk -> unit

type 'a reply = Data of 'a | Write_ok | Failed of string
(** A device reply: [Data] for a reply that carries a payload (the
    payload itself, or what {!read_with}'s [use] made of it), [Write_ok]
    for a success without one, [Failed] otherwise. *)

type result = bytes reply

(** {2 In place}

    Each call submits one request, runs the disk inline and consumes one
    response. The request is staged in a buffer of the device's pool and
    the response is consumed into another; both go back to the pool
    before the call returns, so in steady state a block crossing
    allocates no buffer. *)

val read_with : t -> lba:int -> (bytes -> int -> int -> 'a) -> 'a reply
(** [read_with t ~lba use] reads block [lba]. When the reply carries
    data, [use buf off len] sees its payload in place — valid only during
    the call — and its value comes back as [Data]. *)

val write_from : t -> lba:int -> len:int -> (bytes -> int -> unit) -> result
(** [write_from t ~lba ~len fill] writes a [len]-byte payload to block
    [lba]: [fill buf off] puts it at [off] in the staged request buffer
    (valid only during the call). Fails without submitting when [len]
    exceeds [block_size]. *)

val write_sub : t -> lba:int -> bytes -> off:int -> len:int -> result
(** [write_from] with the payload copied from a slice of a buffer. *)

(** {2 Copying wrappers} *)

val read_block : t -> lba:int -> result
(** Submits, runs the disk, returns the reply with its payload copied. *)

val write_block : t -> lba:int -> bytes -> result

val meter : t -> Cost.meter
val blocks : t -> int

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
    passive host keeps even when block contents are sealed. The disk
    keeps the last 4096 requests in a fixed ring, so this is the last
    min(n, 4096) of the n requests since the last {!disk_clear_log}. *)

val disk_clear_log : disk -> unit
(** Empty the access log. *)

(** {2 Block transactions}

    Each call submits one request, runs the disk inline and consumes one
    response. The request is staged in a buffer of the device's pool and
    the response is consumed into another; both go back to the pool
    before the call returns, so in steady state a block crossing
    allocates no buffer, and these two calls allocate nothing when they
    succeed. *)

val read_into : t -> lba:int -> bytes -> off:int -> len:int -> int
(** [read_into t ~lba dst ~off ~len] reads block [lba] and copies at most
    [len] bytes of its payload to [dst] at [off]. Returns how many it
    copied, or a code < 0 for {!failure} when the device failed or the
    reply carried no payload. *)

val failure : int -> string
(** The message of a {!read_into} failure code ("unexpected write
    response" for a reply without a payload). *)

val write_sub : t -> lba:int -> bytes -> off:int -> len:int -> (unit, string) result
(** [write_sub t ~lba src ~off ~len] writes the [len] bytes of [src] at
    [off] to block [lba]; [Ok ()] when the device took them. Fails
    without submitting when [len] exceeds [block_size], and with
    ["unexpected data response"] when the reply carries a payload. *)

val meter : t -> Cost.meter
val blocks : t -> int

(** Intra-TEE compartments: owner-only buffers and cost-metered boundary
    crossings (MPK-class gate or full TEE switch — the E8 comparison). *)

open Cio_util

exception Access_violation of string

type domain

val domain_alive : domain -> bool

type crossing = Gate | Tee_switch

type buf

type counters = {
  mutable crossings : int;
  mutable allocs : int;
  mutable denied : int;
  mutable crashes : int;
  mutable restarts : int;
}

type t

val create : ?model:Cost.model -> ?meter:Cost.meter -> crossing:crossing -> unit -> t
val meter : t -> Cost.meter
val counters : t -> counters

val add_domain : t -> name:string -> domain

val crash_domain : t -> domain -> unit
(** Kill a domain: every call into or out of it, and every memory access
    it attempts, raises {!Access_violation} until {!restart_domain}. *)

val restart_domain : t -> domain -> unit
(** Revive a crashed domain as a fresh incarnation. State the old
    incarnation held (e.g. TCP connections) is gone; the caller rebuilds
    it — see [Dual.restart_io]. *)

val call : t -> caller:domain -> callee:domain -> (unit -> 'a) -> 'a
(** Cross-domain call: entry and exit each pay the boundary cost.
    Same-domain calls are free. *)

val charge_crossing : t -> unit
(** Charge one boundary round trip without running anything (mailbox-style
    data handoff between asynchronously scheduled domains). *)

val alloc : t -> owner:domain -> int -> buf

val read : t -> as_:domain -> buf -> pos:int -> len:int -> bytes
(** Raises {!Access_violation} unless [as_] owns the buffer. *)

val write : t -> as_:domain -> buf -> pos:int -> bytes -> unit

(** Intra-TEE compartments: domain-owned buffers with explicit grants and
    cost-metered boundary crossings (MPK-class gate or full TEE switch —
    the E8 comparison). *)

open Cio_util

exception Access_violation of string

type domain

val domain_alive : domain -> bool

val domain_incarnation : domain -> int
(** 0 at creation; bumped by every {!restart_domain}. *)

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

val alloc_granted : t -> owner:domain -> reader:domain -> ?write:bool -> int -> buf
(** "Trusted component allocates": allocate in [owner] and grant [reader]
    access to exactly this buffer. *)

val grant : t -> buf -> to_:domain -> ?write:bool -> unit -> unit
val revoke : t -> buf -> from:domain -> unit
val free : t -> buf -> unit
val buf_size : buf -> int

val read : t -> as_:domain -> buf -> pos:int -> len:int -> bytes
(** Raises {!Access_violation} without ownership or a grant. *)

val write : t -> as_:domain -> buf -> pos:int -> bytes -> unit

val copy_between :
  t -> as_:domain -> src:buf -> dst:buf -> src_pos:int -> dst_pos:int -> len:int -> unit

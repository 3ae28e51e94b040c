(** Simulated TEE memory: byte regions with per-page protection, page
    sharing/revocation, and a double-fetch sanitizer.

    Stands in for SEV/TDX/SGX memory protection (DESIGN.md §1): [Private]
    pages fault on host access; [Shared] pages model bounce/ring memory.
    A checked access allocates nothing and leaves no record in the region:
    double fetches are counted by the sanitizer below, what the host can
    observe is recorded by the [Observe] tap, and dereferences of
    unvalidated host-controlled state are cio_lint's taint rules. *)

open Cio_util

type actor = Guest | Host

type prot = Private | Shared

type fault =
  | Host_access_private of { off : int; len : int; write : bool }
  | Out_of_bounds of { actor : actor; off : int; len : int; write : bool }

val pp_fault : Format.formatter -> fault -> unit

exception Fault of fault

type t

val create :
  ?page_size:int ->
  prot:prot ->
  model:Cost.model ->
  ?meter:Cost.meter ->
  name:string ->
  int ->
  t
(** [create ~prot ~model ~name size] makes a zeroed region. [prot] is
    the initial protection of every page. An optional [meter] shares
    cycle accounting with the caller. *)

val size : t -> int
val page_size : t -> int
val page_count : t -> int
val meter : t -> Cost.meter
val model : t -> Cost.model

val clear_log : t -> unit
(** Does nothing: the region keeps no access log. Kept only for the
    benchmark's two calls in [perfbench/echo.ml]; ROADMAP item 1's
    benchmark PR deletes those calls and this function. *)

val prot_of_page : t -> int -> prot

val range_shared : t -> int -> int -> bool
(** True iff every page the range touches is shared. *)

(** {1 Access} — each raises {!Fault} on a protection or bounds violation. *)

val guest_read : t -> off:int -> len:int -> bytes
val guest_write : t -> off:int -> bytes -> unit
val host_read : t -> off:int -> len:int -> bytes
val host_write : t -> off:int -> bytes -> unit

val guest_read_into : t -> off:int -> bytes -> unit
(** [guest_read_into t ~off dst] reads [Bytes.length dst] bytes at [off]
    into [dst] — same checks, sanitizer capture and read-hook
    ordering as {!guest_read}, without allocating. *)

val host_read_into : t -> off:int -> bytes -> unit

val read_u8 : t -> actor -> off:int -> int
val read_u16 : t -> actor -> off:int -> int
val read_u32 : t -> actor -> off:int -> int
val read_u64 : t -> actor -> off:int -> int64
val write_u8 : t -> actor -> off:int -> int -> unit
val write_u16 : t -> actor -> off:int -> int -> unit
val write_u32 : t -> actor -> off:int -> int -> unit
val write_u64 : t -> actor -> off:int -> int64 -> unit

(** {1 Sharing and revocation} *)

val share_range : t -> off:int -> len:int -> unit
val unshare_range : t -> off:int -> len:int -> unit
(** Every page [[off, off + len)] touches becomes shared (private). One
    call is one batched transition: the first changed page pays
    [page_share] ([page_unshare]), every further one the [_extra] cost; a
    call that changes nothing is free. *)

(** {1 Metered copies} *)

val copy_in : t -> off:int -> len:int -> bytes
(** Guest pull of shared bytes into private memory; charges [Copy]. *)

val copy_in_into : t -> off:int -> bytes -> unit
(** {!copy_in} into a caller-provided buffer (length = [Bytes.length dst]);
    charges [Copy] without allocating. *)

val copy_out : t -> off:int -> bytes -> unit
(** Guest publish of private bytes; charges [Copy]. *)

val set_guest_read_hook : t -> (off:int -> len:int -> unit) option -> unit
(** Install an adversary callback fired after every guest read: models a
    host core racing the guest between two fetches, or touching a page
    while the guest holds it revoked. *)

(** {1 Runtime double-fetch sanitizer}

    The dynamic counterpart of cio_lint's DF rule. The sanitizer is armed
    from the outside — by a test or fault campaign — and watches code that
    never asked to be watched: every guest fetch of a shared range is compared
    against the current epoch's earlier fetches, and each overlap counts
    one double fetch (and, when the bytes changed in between, one mutated
    fetch) in this region's {!sanitizer_stats}. When disabled the cost is
    a single [None] branch per access. *)

type sanitizer_stats = { double_fetches : int; mutated_fetches : int; epochs : int }

val sanitizer_enable : t -> unit
(** Idempotent: re-enabling keeps existing counts. *)

val sanitizer_disable : t -> unit
val sanitizer_on : t -> bool

val sanitizer_epoch : t -> unit
(** Start a new epoch (one logical parse, e.g. one poll): forgets the
    recorded fetches but keeps the totals. Re-reading an index across
    epochs is legitimate; re-reading inside one is a double fetch. *)

val sanitizer_stats : t -> sanitizer_stats

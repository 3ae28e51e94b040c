(** Reusable buffer pool for the allocation-free datapath.

    Buffers are recycled by exact length (OCaml [bytes] cannot be
    sub-viewed, and frame consumers require exact-length buffers);
    retention is capped per power-of-two size class. In steady state —
    traffic repeating a bounded set of frame sizes — every acquire is a
    reuse and the pool allocates nothing per frame. *)

type stats = {
  mutable fresh : int;     (** acquires that had to allocate *)
  mutable reused : int;    (** acquires served from a free list *)
  mutable recycled : int;  (** buffers accepted back *)
  mutable dropped : int;   (** returns rejected by the class cap *)
}

type t

val create : ?cap:int -> unit -> t
(** [cap] bounds the number of free buffers retained per power-of-two
    size class (default 256). *)

val acquire : t -> int -> bytes
(** [acquire t len] returns a buffer of exactly [len] bytes with
    unspecified contents — from the free list when one of that length is
    available, freshly allocated otherwise. Raises [Invalid_argument]
    for non-positive lengths. *)

val recycle : t -> bytes -> unit
(** Return a buffer for reuse. The caller must not touch it afterwards.
    Zero-length buffers and returns beyond the class cap are dropped.
    In checking mode a buffer that is already free in [t] raises
    [Invalid_argument], and the recycled buffer is poisoned. *)

val set_checking : bool -> unit
(** Switch checking mode on or off for every pool (default off). The
    test suite and [cio_sim campaign] run with it on. *)

val stats : t -> stats

val retained : t -> int
(** Free buffers currently held across all buckets. The process-wide
    maximum across pools is exported as the [bufpool.retained_high]
    gauge; cap-rejected returns count in the pool's [stats.dropped]. *)

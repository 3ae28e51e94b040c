(** Simulated cycle-cost model and per-category work meter.

    "Performance" in this reproduction is counted work: copies, checks,
    ring operations, domain crossings, notifications and crypto all charge
    cycles to a {!meter} under a {!model}. See DESIGN.md §1 for why this
    substitution preserves the paper's performance *shapes*. *)

type model = {
  cycles_per_ghz : float;
  copy_base : int;
  copy_per_byte_q2 : int;
  check : int;
  ring_op : int;
  ring_burst_op : int;
  mmio : int;
  notification : int;
  gate_crossing : int;
  tee_switch : int;
  page_share : int;
  page_share_extra : int;
  page_unshare : int;
  page_unshare_extra : int;
  aead_base : int;
  aead_per_byte_q2 : int;
  dma_base : int;
  dma_per_byte_q2 : int;
  alloc : int;
}

val default : model

val copy_cost : model -> int -> int
(** Cycles to copy [n] bytes. *)

val aead_cost : model -> int -> int
val dma_cost : model -> int -> int

type category =
  | Copy
  | Check
  | Ring
  | Mmio
  | Notification
  | Gate
  | Tee_switch
  | Share
  | Unshare
  | Crypto
  | Dma
  | Alloc
  | Stack

val all_categories : category list

type meter

val meter : unit -> meter
val charge : meter -> category -> int -> unit
val total : meter -> int
val cycles_of : meter -> category -> int
val count_of : meter -> category -> int
val reset : meter -> unit

val snapshot : meter -> meter
(** Immutable copy of the current tallies. *)

val diff : before:meter -> after:meter -> meter
(** Per-category difference of two snapshots. *)

val pp_meter : Format.formatter -> meter -> unit

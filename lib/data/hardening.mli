(** Figures 3/4 dataset + analysis: classified hardening commits to the
    NetVSC and VirtIO Linux drivers. *)

type category =
  | Add_checks
  | Add_init
  | Add_copies
  | Protect_races
  | Restrict_features
  | Design_change
  | Amend_previous

val category_name : category -> string

type subsystem = Netvsc | Virtio

type commit = {
  id : string;
  subsystem : subsystem;
  subject : string;
  category : category;
  amends : string option;
  reverted : bool;
}

val corpus : commit list

val total : subsystem -> int
val distribution : subsystem -> (category * int) list
val percentage : subsystem -> category -> float

val amend_count : subsystem -> int
val amend_rate : subsystem -> float
(** The error-proneness headline: share of hardening commits that fix
    earlier hardening commits (12 of the VirtIO series). *)

val revert_count : subsystem -> int
val dominant_category : subsystem -> category

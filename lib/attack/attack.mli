(** Interface-vulnerability attack harness (E4): §2.5 attack classes aimed
    at the four interface designs, with canary-based leak detection and
    outcome classification. *)

type outcome =
  | Leak of string
  | Corruption of string
  | Crash of string
  | Livelock of string
  | Desync of string
  | Confined of string
  | Fail_closed of string
  | No_effect

val outcome_name : outcome -> string
val outcome_detail : outcome -> string

val is_compromise : outcome -> bool
(** True for outcomes that violate confidentiality or integrity; false
    for defended/benign outcomes (DoS is out of scope per §2.1). *)

type target = Virtio_unhardened | Virtio_hardened | Cionet | Dual

val target_name : target -> string
val all_targets : target list

type scenario = {
  sname : string;
  description : string;
  virtio : Cio_virtio.Device.misbehavior;  (** the fault both virtio targets face *)
  cionet : Cio_cionet.Host_model.misbehavior;  (** the fault cionet and dual face *)
}

val scenarios : scenario list
val find_scenario : string -> scenario option

val canary : string
val contains_canary : bytes -> bool

val run : scenario -> target -> outcome

val matrix : unit -> (scenario * (target * outcome) list) list
(** The full E4 resilience matrix. *)

type stack_compromise = { direct_read : outcome; forged_stream : outcome }

val run_stack_compromise : unit -> stack_compromise
(** §3.1's multi-stage argument: a fully compromised I/O stack can
    neither read app memory (compartment) nor forge app data (L5). *)

(** The overload-control plane of one confidential unit: admission
    controller + retry budget + circuit breaker + deadline budget, with
    every decision counted under [overload.*] metrics. Deterministic
    from the simulated clock and the plane's Rng split. *)

type config = {
  admit_rate_per_sec : int;   (** token-bucket refill rate *)
  admit_burst : int;          (** bucket depth, whole tokens *)
  bulk_reserve_percent : int; (** headroom bulk may not consume *)
  queue_limit : int;          (** bound for the stack's TX coalescing queue *)
  deadline_budget_ns : int64; (** per-request latency budget; 0 = none *)
  retry_capacity : int;
  retry_refill_percent : int;
  retry_base_ns : int64;
  retry_cap_ns : int64;
  breaker_threshold : int;
  breaker_cooldown : int;
}

val default_config : config

type t

val create : ?config:config -> rng:Cio_util.Rng.t -> now:(unit -> int64) -> unit -> t

val admit : ?deadline:Deadline.t -> t -> Admission.klass -> Pressure.outcome
(** The boundary decision: blown deadline, open breaker (control is
    exempt), then the token bucket — cheapest rejection first. *)

val deadline : t -> Deadline.t
(** A fresh deadline for a request admitted now. *)

val config : t -> config
val retry_budget : t -> Retry_budget.t
val breaker : t -> Breaker.t

val admitted : t -> int
val shed : t -> int
(** Total sheds across admission, deadline and breaker reasons. *)

val deadline_shed : t -> int

(** The overload-control plane of one confidential unit: admission
    controller + retry budget + circuit breaker + deadline budget. The
    plane owns the count of every decision it makes ({!admitted},
    {!shed}, {!deadline_shed}). Deterministic from the simulated clock
    and the plane's Rng split. *)

type config = {
  admit_rate_per_sec : int;   (** token-bucket refill rate *)
  admit_burst : int;          (** bucket depth, whole tokens *)
  queue_limit : int;          (** bound for the stack's TX coalescing queue *)
  deadline_budget_ns : int64; (** per-request latency budget; 0 = none *)
  breaker_threshold : int;    (** consecutive failures that open the breaker *)
}
(** The rest is fixed for every unit: 25% of the bucket is bulk
    headroom; the retry budget holds 16 tokens, earns back 20% of one
    per success and jitters backoff over [[1 ms, 200 ms]]; an open
    breaker probes after 4 consultations. *)

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

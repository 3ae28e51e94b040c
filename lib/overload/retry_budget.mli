(** Shared retry budget with decorrelated-jitter backoff. Retries spend
    tokens; successes earn them back at a fixed percentage, so recovery
    cannot amplify overload (TCP retransmit pacing and watchdog resets
    both draw from the same budget). *)

type t

val create :
  ?capacity:int ->
  ?refill_percent:int ->
  ?base_ns:int64 ->
  ?cap_ns:int64 ->
  rng:Cio_util.Rng.t ->
  unit ->
  t
(** [capacity] whole retry tokens (default 16, starts full);
    [refill_percent] of a token earned per {!on_success} (default 20);
    backoff jitter ranges over [[base_ns, cap_ns]] (defaults 1 ms /
    200 ms of simulated time). *)

val try_retry : t -> bool
(** Spend one token. [false] means the budget is exhausted: do not
    retry now; wait for successes to refill it. *)

val on_success : t -> unit
(** Credit a fraction of a token for a completed unit of useful work. *)

val backoff_ns : t -> int64
(** Next decorrelated-jitter delay: uniform in [[base, min (cap, 3 *
    previous)]]; never below base, never above cap. Advances the
    internal anchor. *)

val reset_backoff : t -> unit
(** Collapse the jitter anchor back to [base_ns] (call on recovery). *)

val granted : t -> int
val denied : t -> int

(* The overload-control plane: one object tying the mechanisms together.

   A plane is created per confidential unit (Dual) and threaded through
   the layers that need it: the admission controller guards the
   app-facing send boundary, the retry budget paces TCP retransmits and
   watchdog resets, the breaker tracks host health, and the deadline
   budget stamps each admitted request so later crossings can shed blown
   work.

   Admission order at the boundary (cheapest rejection first):

     1. deadline already blown          -> Shed Deadline
     2. breaker not closed (non-control)-> Shed Breaker_open
     3. token bucket by class           -> Shed Admission / Accepted

   Every decision is counted: [overload.admitted], [overload.shed] and
   its per-reason splits. All state is deterministic from the simulated
   clock and the plane's Rng split, so campaigns and experiments report
   byte-identical numbers per seed. *)

open Cio_util
module Metrics = Cio_telemetry.Metrics

let m_admitted = Metrics.counter Metrics.default "overload.admitted"
let m_shed = Metrics.counter Metrics.default "overload.shed"
let m_shed_admission = Metrics.counter Metrics.default "overload.shed.admission"
let m_shed_deadline = Metrics.counter Metrics.default "overload.shed.deadline"
let m_shed_breaker = Metrics.counter Metrics.default "overload.shed.breaker"

type config = {
  admit_rate_per_sec : int;   (* token-bucket refill rate *)
  admit_burst : int;          (* bucket depth, whole tokens *)
  queue_limit : int;          (* bound for the stack's TX coalescing queue *)
  deadline_budget_ns : int64; (* per-request latency budget; 0 = none *)
  breaker_threshold : int;
}

let default_config =
  {
    admit_rate_per_sec = 100_000;
    admit_burst = 64;
    queue_limit = 256;
    deadline_budget_ns = 50_000_000L;  (* 50 ms *)
    breaker_threshold = 3;
  }

(* The settings no unit varies: 16 retry tokens, a fifth of one earned
   back per success, with backoff jitter capped at 200 ms; an open
   breaker grants its half-open probe on the fourth consultation. *)
let retry_capacity = 16
let retry_refill_percent = 20
let retry_cap_ns = 200_000_000L
let breaker_cooldown = 4

type t = {
  config : config;
  admission : Admission.t;
  retry : Retry_budget.t;
  breaker : Breaker.t;
  now : unit -> int64;
  mutable deadline_shed : int;
  mutable breaker_shed : int;
}

let create ?(config = default_config) ~rng ~now () =
  {
    config;
    admission =
      Admission.create ~rate_per_sec:config.admit_rate_per_sec ~burst:config.admit_burst ~now;
    retry =
      Retry_budget.create ~capacity:retry_capacity ~refill_percent:retry_refill_percent
        ~cap_ns:retry_cap_ns ~rng:(Rng.split rng);
    breaker = Breaker.create ~threshold:config.breaker_threshold ~cooldown:breaker_cooldown;
    now;
    deadline_shed = 0;
    breaker_shed = 0;
  }

let config t = t.config
let retry_budget t = t.retry
let breaker t = t.breaker

let deadline t = Deadline.after ~now:(t.now ()) ~budget_ns:t.config.deadline_budget_ns

let admit ?(deadline = Deadline.none) t klass =
  if Deadline.expired deadline ~now:(t.now ()) then begin
    t.deadline_shed <- t.deadline_shed + 1;
    Metrics.inc m_shed;
    Metrics.inc m_shed_deadline;
    Pressure.Backpressure Pressure.Deadline
  end
  else if Breaker.state t.breaker <> Breaker.Closed && klass <> Admission.Control
  then begin
    t.breaker_shed <- t.breaker_shed + 1;
    Metrics.inc m_shed;
    Metrics.inc m_shed_breaker;
    Pressure.Backpressure Pressure.Breaker_open
  end
  else
    match Admission.admit t.admission klass with
    | Pressure.Accepted ->
        Metrics.inc m_admitted;
        Pressure.Accepted
    | Pressure.Backpressure _ as bp ->
        Metrics.inc m_shed;
        Metrics.inc m_shed_admission;
        bp

let admitted t = Admission.admitted_total t.admission
let shed t = Admission.shed_total t.admission + t.deadline_shed + t.breaker_shed
let deadline_shed t = t.deadline_shed

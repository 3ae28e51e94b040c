(* Retry budget with decorrelated-jitter backoff.

   Naive retry loops amplify overload: every layer that retries on its
   own schedule multiplies the offered load exactly when the system can
   least afford it (TCP retransmits a stalled host, the watchdog resets
   the rings, the app retries the request...). The budget makes retries
   a shared, bounded resource: spending requires a token, and tokens are
   earned back by *successes* (a fixed percentage per success, the
   classic retry-ratio scheme), so a dead host drains the budget once
   and then the retriers go quiet instead of storming.

   The pacing side is decorrelated jitter (sleep = random between base
   and 3x the previous sleep, capped): it spreads retries in time so
   synchronized retriers de-correlate, while the cap keeps the worst
   wait bounded. The jitter draws from an owned deterministic Rng, so
   identical seeds give identical schedules. *)

open Cio_util

type t = {
  capacity_c : int;       (* centi-tokens: capacity * 100 *)
  refill_c : int;         (* centi-tokens earned per success *)
  cap_ns : int;
  rng : Rng.t;
  mutable tokens_c : int;
  mutable prev_ns : int;  (* previous backoff, the jitter's anchor *)
  mutable granted : int;
  mutable denied : int;
}

(* The backoff floor: 1 ms of simulated time. *)
let base_ns = 1_000_000

let create ~capacity ~refill_percent ~cap_ns ~rng =
  if capacity <= 0 then invalid_arg "Retry_budget.create: capacity must be positive";
  let cap_ns = Int64.to_int cap_ns in
  if cap_ns < base_ns then invalid_arg "Retry_budget.create: need cap_ns >= 1 ms";
  {
    capacity_c = capacity * 100;
    refill_c = max 1 refill_percent;
    cap_ns;
    rng;
    tokens_c = capacity * 100;
    prev_ns = base_ns;
    granted = 0;
    denied = 0;
  }

let try_retry t =
  if t.tokens_c >= 100 then begin
    t.tokens_c <- t.tokens_c - 100;
    t.granted <- t.granted + 1;
    true
  end
  else begin
    t.denied <- t.denied + 1;
    false
  end

let on_success t = t.tokens_c <- Int.min t.capacity_c (t.tokens_c + t.refill_c)

(* Decorrelated jitter: v ~ U[base, min(cap, 3 * prev)]. Monotone in
   expectation while climbing, hard-capped always, and collapses back to
   [base] on [reset_backoff]. *)
let backoff_ns t =
  let hi = max base_ns (min t.cap_ns (t.prev_ns * 3)) in
  let v = base_ns + Rng.int t.rng (hi - base_ns + 1) in
  t.prev_ns <- v;
  Int64.of_int v

let reset_backoff t = t.prev_ns <- base_ns

let granted t = t.granted
let denied t = t.denied

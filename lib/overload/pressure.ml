(* Typed backpressure signals.

   Above the L2 rings, the pre-overload datapath queued silently: the
   stack's TX coalescing queue, the channel outbox and the host's pending
   RX list were all unbounded, so a slow consumer turned into memory
   growth rather than a visible signal. The overload plane replaces the
   silent paths with explicit, typed outcomes at each crossing: every
   producer learns *why* it was refused (ring full, bounded queue full,
   admission, deadline blown, breaker open), and every refusal is
   counted.

   [level] is the continuous companion to the binary outcome: a queue's
   occupancy mapped to Nominal / Soft / Hard so upper layers can react
   before the hard edge (coalesce more, shed bulk traffic first). *)

module Metrics = Cio_telemetry.Metrics

type level = Nominal | Soft | Hard

type reason =
  | Ring_full        (* L2 TX ring had no EMPTY slot *)
  | Queue_full       (* a bounded software queue refused the item *)
  | Admission        (* token bucket had no token for this class *)
  | Deadline         (* the request outlived its latency budget *)
  | Breaker_open     (* host circuit breaker is not closed *)
  | Retry_exhausted  (* retry budget refused to amplify load *)

type outcome = Accepted | Backpressure of reason

let reason_name = function
  | Ring_full -> "ring-full"
  | Queue_full -> "queue-full"
  | Admission -> "admission"
  | Deadline -> "deadline"
  | Breaker_open -> "breaker-open"
  | Retry_exhausted -> "retry-exhausted"

let level_name = function Nominal -> "nominal" | Soft -> "soft" | Hard -> "hard"

(* Soft at half occupancy, hard at 7/8 — the same shape real NIC drivers
   use for ring-occupancy thresholds (start coalescing early, refuse
   late). Integer arithmetic only: called on the datapath. *)
let level_of_occupancy ~used ~capacity =
  if capacity <= 0 || used <= 0 then Nominal
  else if used * 8 >= capacity * 7 then Hard
  else if used * 2 >= capacity then Soft
  else Nominal

(* Backpressure *events* (a producer bounced off a full ring or bounded
   queue) are module-level metrics: they can fire in layers that hold no
   plane handle (driver, stack). *)
let m_bp_ring = Metrics.counter Metrics.default "overload.bp.ring_full"
let m_bp_queue = Metrics.counter Metrics.default "overload.bp.queue_full"

let note_ring_full () = Metrics.inc m_bp_ring
let note_queue_full () = Metrics.inc m_bp_queue

(* Typed backpressure signals.

   Above the L2 rings, the pre-overload datapath queued silently: the
   stack's TX coalescing queue, the channel outbox and the host's pending
   RX list were all unbounded, so a slow consumer turned into memory
   growth rather than a visible signal. The overload plane replaces the
   silent paths with explicit, typed outcomes at each crossing: every
   producer learns *why* it was refused (admission, deadline blown,
   breaker open, retry budget spent), and every refusal, a full ring or
   bounded queue included, is counted. *)

module Metrics = Cio_telemetry.Metrics

type reason =
  | Admission        (* token bucket had no token for this class *)
  | Deadline         (* the request outlived its latency budget *)
  | Breaker_open     (* host circuit breaker is not closed *)
  | Retry_exhausted  (* retry budget refused to amplify load *)

type outcome = Accepted | Backpressure of reason

(* Backpressure *events* (a producer bounced off a full ring or bounded
   queue) are module-level metrics: they can fire in layers that hold no
   plane handle (driver, stack). *)
let m_bp_ring = Metrics.counter Metrics.default "overload.bp.ring_full"
let m_bp_queue = Metrics.counter Metrics.default "overload.bp.queue_full"

let note_ring_full () = Metrics.inc m_bp_ring
let note_queue_full () = Metrics.inc m_bp_queue

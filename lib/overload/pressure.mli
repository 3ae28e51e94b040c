(** Typed backpressure signals: the vocabulary shared by every layer of
    the overload-control plane. A producer that cannot make progress
    returns [Backpressure reason] instead of silently queueing. *)

type reason =
  | Admission        (** token bucket had no token for this class *)
  | Deadline         (** the request outlived its latency budget *)
  | Breaker_open     (** host circuit breaker is not closed *)
  | Retry_exhausted  (** retry budget refused to amplify load *)

type outcome = Accepted | Backpressure of reason

val note_ring_full : unit -> unit
(** Count one ring-full backpressure event ([overload.bp.ring_full]). *)

val note_queue_full : unit -> unit
(** Count one bounded-queue refusal ([overload.bp.queue_full]). *)

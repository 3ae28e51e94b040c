(** Open-loop offered-load generator over the dual-boundary echo datapath
    with a rate-limited (slow-but-honest) host — the E22 engine.

    Measures goodput (replies within the deadline), shed rate and RTT
    percentiles at a configured offered rate, with the overload plane on
    or off. Same seed + config, byte-identical report. *)

type config = {
  offered_per_mille : int;  (** offered messages per 1000 steps *)
  overload : bool;
      (** stand up the unit's overload plane, tuned to the slow host:
          admission at its service rate, the deadline as every request's
          budget, and arrivals beyond a queue depth of 16 shed at the
          source *)
}

val deadline_steps : int
(** Replies later than this many steps are not goodput. *)

val host_quota : int
(** {!Cio_cionet.Host_model} frames serviced per poll. *)

type report = {
  offered : int;
  sent : int;
  shed : int;
  echoes : int;
  timely : int;
  p50_rtt_steps : int;
  p99_rtt_steps : int;
  queued : int;
  backlog_bytes : int;
  tx_backlog : int;
  breaker_transitions : int;
}

val run : config:config -> seed:int64 -> report

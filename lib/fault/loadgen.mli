(** Open-loop offered-load generator over the dual-boundary echo datapath
    with a rate-limited (slow-but-honest) host — the E22 engine.

    Measures goodput (replies within the deadline), shed rate and RTT
    percentiles at a configured offered rate, with the overload plane on
    or off. Same seed + config, byte-identical report. *)

type config = {
  quantum_ns : int64;
  steps : int;
  msg_size : int;
  offered_per_mille : int;  (** offered messages per 1000 steps *)
  deadline_steps : int;     (** replies later than this are not goodput *)
  host_quota : int;         (** {!Cio_cionet.Host_model} frames serviced per poll *)
  gen_queue_limit : int;
      (** plane-on only: arrivals beyond this queue depth are shed at the
          source, keeping queue wait below the deadline for admitted load *)
  overload : Cio_overload.Plane.config option;
}

val default_config : config

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

val run : ?config:config -> seed:int64 -> unit -> report

(** Batch and streaming statistics for the benchmark harness. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val percentile : float array -> float -> float
(** [percentile samples p] with linear interpolation; [p] in [0, 100]. *)

val mean : float array -> float
val stddev : float array -> float
(** Sample standard deviation (Bessel-corrected). *)

val summarize : float array -> summary

(** {1 Streaming accumulator (Welford)} *)

type online

val online : unit -> online
val add : online -> float -> unit
val online_count : online -> int
val online_mean : online -> float
val online_stddev : online -> float

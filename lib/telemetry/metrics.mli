(** Named counters, gauges and log₂-bucketed latency histograms.

    A registry maps names to instruments. Creation is idempotent:
    [counter reg "x"] returns the same instrument every time, so
    call-sites can hold a top-level handle and pay only a plain integer
    increment per event — no hash lookup, no allocation. Re-using a name
    with a different instrument type raises [Invalid_argument].

    Histograms bucket observations by [log2 (next_power_of_two v)]:
    bucket [i] covers [(2^(i-1), 2^i]] (bucket 0 covers values [<= 1]).
    Quantiles are answered from the cumulative bucket counts and clamped
    to the observed [[min, max]] range, which makes them monotone in the
    requested rank and exact at the extremes. *)

type t
(** A metrics registry. *)

val create : unit -> t

val default : t
(** The process-wide registry used by the instrumented stack. *)

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
val add : counter -> int -> unit
val inc : counter -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> int -> unit
val gauge_value : gauge -> int

(** {1 Histograms} *)

type histogram

val histogram : t -> string -> histogram
val observe : histogram -> int -> unit
(** Record one observation. Negative values clamp to 0. *)

val count : histogram -> int
val quantile : histogram -> float -> int
(** [quantile h q] for [q] in [[0, 1]]; [0] when empty. Returns the
    upper bound of the bucket containing rank [q], clamped to the
    observed [[min, max]]. *)

val hmax : histogram -> int
val hmin : histogram -> int

(** {1 Snapshots} *)

type instrument =
  | Counter of int
  | Gauge of int
  | Histogram of {
      n : int;
      p50 : int;
      p90 : int;
      p99 : int;
      min : int;
      max : int;
    }

val snapshot : t -> (string * instrument) list
(** Name-sorted view of every instrument. *)

val to_json : Buffer.t -> t -> unit
(** Append a JSON object [{"name": ...}] describing [snapshot]. *)

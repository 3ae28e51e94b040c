(** Sample buffers and percentiles for the benchmark's per-op timings. *)

type samples
(** A growable buffer of integer samples (nanoseconds per op). *)

val samples : unit -> samples
val add : samples -> int -> unit

val to_array : samples -> int array
(** The samples taken so far, in the order they were added. *)

val sorted : int array -> int array
(** A sorted copy. *)

val percentile : int array -> float -> int
(** [percentile sorted p] is the nearest-rank [p]-quantile of a sorted,
    non-empty array: the smallest sample with at least [p] of all
    samples at or below it. [p] is in [(0, 1]]. *)

val beyond : n:int -> float -> int
(** [beyond ~n p]: how many of [n] samples rank after the one
    {!percentile} picks for [p]. The benchmark reports a percentile only
    when this is at least ten. *)

val calibrated_rate :
  ops:int array -> work_ns:int array -> kernel_ns:int array -> group:int -> reference_ns:float -> float
(** Ops per calibrated second over a window's kernel marks. Mark [i] is
    taken just before the [i]-th run of the reference kernel: [ops.(i)]
    ops had completed, [work_ns.(i)] ns of work had passed, and the
    kernel's earlier runs had taken [kernel_ns.(i)] ns in all (so
    [kernel_ns.(i+1) - kernel_ns.(i)] is run [i]'s time). Consecutive
    [group] runs of the kernel cut the window into slices; a slice's work
    time is rescaled by [reference_ns] over its kernel runs' mean time,
    and the rate is all the slices' ops over all their rescaled time. Ops
    before the first mark and after the last whole slice are left out.

    A neighbour that slows the core for a slice slows the kernel runs in
    it too, and the two cancel; every cost the program itself pays still
    shows in full, since no slice is dropped. *)

val median : float list -> float
(** Median of a non-empty list (mean of the middle two when even). *)

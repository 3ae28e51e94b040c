(** Ring-buffered trace recorder with deterministic timestamps.

    Disabled by default; when disabled, the only cost a guarded
    call-site pays is one load + branch on [on ()]. When enabled,
    events land in a preallocated ring of mutable slots — no
    allocation per event beyond the strings the caller already holds.
    When the ring wraps, the oldest events are dropped and counted.

    Timestamps come from a pluggable clock ([set_clock]), normally the
    simulator's virtual nanosecond clock, so traces are deterministic
    across runs with the same seed. The default clock is a logical
    counter that advances by 1 per event. *)

(** {1 Lifecycle} *)

val on : unit -> bool
(** True when tracing is enabled. Hot call-sites must guard on this. *)

val enable : capacity:int -> unit
(** Start recording into a fresh ring of [capacity] slots (rounded up
    to a power of two). *)

val disable : unit -> unit

val set_clock : (unit -> int64) -> unit
(** Timestamp source in nanoseconds. Survives [enable]/[disable]. *)

val reset_clock : unit -> unit
(** Back to the built-in logical counter. *)

(** {1 Recording} *)

val span_begin : cat:string -> string -> unit
val span_end : cat:string -> string -> unit

val instant : ?arg:int -> cat:string -> string -> unit
(** A point event; [arg] is an optional integer payload (size, index). *)

val with_span : cat:string -> string -> (unit -> 'a) -> 'a
(** [with_span ~cat name f] wraps [f] in a begin/end pair; the end is
    emitted even if [f] raises. Cheap no-op when disabled. *)

(** {1 Inspection / export} *)

type phase = B | E | I

type event = {
  ts : int64; (* ns *)
  seq : int;
  phase : phase;
  cat : string;
  name : string;
  arg : int; (* min_int means "no arg" *)
}

val events : unit -> event list
(** Oldest-first contents of the ring. *)

val recorded : unit -> int
(** Total events recorded since [enable]/[clear], including dropped. *)

val dropped : unit -> int
(** Events overwritten by ring wrap-around. *)

val digest : unit -> int
(** Running digest of every event recorded since [enable], dropped ones
    included: FNV-1a over its timestamp, phase, category hash, name
    hash and argument. Two traces that differ in one of those words of
    one event digest differently. *)

val to_chrome_json : Buffer.t -> unit
(** Append a Chrome [trace_event]-format JSON array ([about://tracing],
    Perfetto). Timestamps are emitted in microseconds. *)

val pp_timeline : Format.formatter -> unit -> unit
(** Compact human-readable timeline, one event per line. *)

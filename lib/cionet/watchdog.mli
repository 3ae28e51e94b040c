(** Driver watchdog: poll-budget deadlines per ring direction, exponential
    backoff, and automatic generation-bumping reset ({!Driver.hot_swap})
    when the host stops servicing the device. *)

type t

val create :
  ?poll_budget:int ->
  ?max_backoff:int ->
  ?breaker:Cio_overload.Breaker.t ->
  ?retry_budget:Cio_overload.Retry_budget.t ->
  Driver.t ->
  t
(** [poll_budget] is the deadline in observation ticks without progress
    (default 2048); [max_backoff] caps the exponential budget multiplier
    (default 32). A reset is {!Driver.hot_swap} and nothing else: the
    host serves the driver's new rings on its own (in the simulator,
    {!Host_model} follows the driver it was created with).

    With [breaker], deadline trips and ring-full windows are recorded as
    host-health failures, progress as success, and resets are skipped
    while the breaker is Open (counted as [overload.watchdog.skipped]).
    With [retry_budget], each reset spends a retry token; an exhausted
    budget defers the reset ([overload.watchdog.deferred]). Neither
    changes the backoff multiplier's monotone-doubling behaviour. *)

val tick : ?expecting_rx:bool -> t -> unit
(** One observation per driver poll quantum. The TX deadline arms itself
    whenever produced-but-unconsumed TX frames exist; the RX deadline only
    counts while [expecting_rx] (the caller knows a response is owed). *)

val stalls_detected : t -> int
(** Deadline trips that reset the rings. {!Driver.generation} counts
    these resets together with any other hot swap of the driver. *)

val current_backoff : t -> int
(** Current budget multiplier (1 after any progress). *)

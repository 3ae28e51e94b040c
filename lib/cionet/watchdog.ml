(* Driver watchdog: the statelessness payoff turned into a recovery loop.

   The guest cannot trust the host to service the device — a stalled,
   frozen, or crashed device model looks exactly like a dead one. Because
   the cionet interface is stateless and zero-negotiation, the cure is
   always the same and always safe: bump the generation, revoke the old
   region wholesale, and stand up fresh rings (Driver.hot_swap). Nothing
   is negotiated or replayed across the reset, so a false positive costs
   only the reset itself; TCP and the L5 record layer absorb the cable
   pull either way.

   Detection is deadline-based in counted polls, per direction:

   - TX deadline: the guest has produced frames the host has not consumed
     and the host-consumed cursor is not advancing.
   - RX deadline: the caller declares it is waiting for inbound data
     (e.g. a request is outstanding) and the host-produced cursor is not
     advancing. This is what catches a one-directional ring freeze.

   Consecutive resets without intervening progress back off
   exponentially, so a long host outage costs a handful of resets, not a
   reset per budget. *)

let m_deferred =
  Cio_telemetry.Metrics.counter Cio_telemetry.Metrics.default "overload.watchdog.deferred"
let m_skipped =
  Cio_telemetry.Metrics.counter Cio_telemetry.Metrics.default "overload.watchdog.skipped"
let m_full_windows =
  Cio_telemetry.Metrics.counter Cio_telemetry.Metrics.default "overload.ring_full_windows"

type t = {
  driver : Driver.t;
  poll_budget : int;
  max_backoff : int;
  (* Overload plane (both optional; absent = classic watchdog):
     [breaker] tracks host health — deadline trips and ring-full windows
     are failures, progress is success, and while the breaker is Open
     resets are skipped (the host is considered down; re-swapping rings
     at it buys nothing). [retry_budget] paces the resets themselves:
     a reset is a retry against the host and spends a token. *)
  breaker : Cio_overload.Breaker.t option;
  retry_budget : Cio_overload.Retry_budget.t option;
  mutable last_tx_consumed : int;
  mutable last_rx_produced : int;
  mutable tx_idle : int;
  mutable rx_idle : int;
  mutable backoff : int;  (* budget multiplier; doubles per consecutive reset *)
  mutable stalls_detected : int;  (* trips acted on: one ring reset each *)
  mutable last_full_misses : int;
  mutable full_streak : int;  (* ticks with fresh full-misses and no progress *)
}

let create ~poll_budget ?(max_backoff = 32) ?breaker ?retry_budget driver =
  {
    driver;
    poll_budget = max 1 poll_budget;
    max_backoff = max 1 max_backoff;
    breaker;
    retry_budget;
    last_tx_consumed = 0;
    last_rx_produced = 0;
    tx_idle = 0;
    rx_idle = 0;
    backoff = 1;
    stalls_detected = 0;
    last_full_misses = 0;
    full_streak = 0;
  }

let stalls_detected t = t.stalls_detected
let current_backoff t = t.backoff

let budget t = t.poll_budget * t.backoff

let reset_now t =
  t.stalls_detected <- t.stalls_detected + 1;
  if Cio_telemetry.Trace.on () then begin
    Cio_telemetry.Trace.instant ~cat:Cio_telemetry.Kind.l2 "stall-detected";
    Cio_telemetry.Trace.span_begin ~cat:Cio_telemetry.Kind.l2 "watchdog-reset"
  end;
  Driver.hot_swap t.driver;
  (* Fresh rings: every cursor is back at zero. *)
  t.last_tx_consumed <- 0;
  t.last_rx_produced <- 0;
  t.tx_idle <- 0;
  t.rx_idle <- 0;
  t.last_full_misses <- 0;
  t.full_streak <- 0;
  t.backoff <- min (t.backoff * 2) t.max_backoff;
  if Cio_telemetry.Trace.on () then
    Cio_telemetry.Trace.span_end ~cat:Cio_telemetry.Kind.l2 "watchdog-reset"

(* One observation per driver poll quantum. [expecting_rx] is the upper
   layer's statement that inbound data is owed (a request in flight); the
   watchdog cannot infer that from the rings alone. *)
let tick ~expecting_rx t =
  let txc = (Ring.counters (Driver.tx_ring t.driver)).Ring.consumed in
  let rxc = (Ring.counters (Driver.rx_ring t.driver)).Ring.produced in
  let tx_outstanding =
    (Ring.counters (Driver.tx_ring t.driver)).Ring.produced > txc
  in
  let progress = txc > t.last_tx_consumed || rxc > t.last_rx_produced in
  if progress then begin
    t.tx_idle <- 0;
    t.rx_idle <- 0;
    t.backoff <- 1;
    t.full_streak <- 0;
    (* Host health restored: close the breaker, pay back the budget. *)
    (match t.breaker with Some b -> Cio_overload.Breaker.success b | None -> ());
    (match t.retry_budget with
    | Some rb -> Cio_overload.Retry_budget.on_success rb
    | None -> ())
  end
  else begin
    if tx_outstanding then t.tx_idle <- t.tx_idle + 1 else t.tx_idle <- 0;
    if expecting_rx then t.rx_idle <- t.rx_idle + 1 else t.rx_idle <- 0
  end;
  (* Ring-full windows: a TX ring that keeps refusing frames for a whole
     budget without the host consuming anything is a host-health failure
     in its own right — the breaker hears about it before (or without) a
     deadline trip. The counter can regress only across a hot swap. *)
  let fm = (Ring.counters (Driver.tx_ring t.driver)).Ring.full_misses in
  if fm > t.last_full_misses && not progress then begin
    t.full_streak <- t.full_streak + 1;
    if t.full_streak >= budget t then begin
      Cio_telemetry.Metrics.inc m_full_windows;
      (match t.breaker with Some b -> Cio_overload.Breaker.failure b | None -> ());
      t.full_streak <- 0
    end
  end
  else if fm < t.last_full_misses || progress then t.full_streak <- 0;
  t.last_full_misses <- fm;
  t.last_tx_consumed <- txc;
  t.last_rx_produced <- rxc;
  if t.tx_idle >= budget t || t.rx_idle >= budget t then begin
    (* Deadline tripped. The breaker records the failure; whether we
       actually reset depends on it (an Open breaker means the host is
       considered down — re-swapping rings at it buys nothing) and on
       the retry budget (a reset is a retry against the host). Skipped
       and deferred trips zero the idle counters so the next window
       measures afresh; the backoff multiplier only moves on real
       resets and on progress, preserving its monotone-doubling shape. *)
    (match t.breaker with Some b -> Cio_overload.Breaker.failure b | None -> ());
    let allowed =
      match t.breaker with Some b -> Cio_overload.Breaker.allow b | None -> true
    in
    if not allowed then begin
      Cio_telemetry.Metrics.inc m_skipped;
      t.tx_idle <- 0;
      t.rx_idle <- 0
    end
    else begin
      let granted =
        match t.retry_budget with
        | Some rb -> Cio_overload.Retry_budget.try_retry rb
        | None -> true
      in
      if granted then reset_now t
      else begin
        Cio_telemetry.Metrics.inc m_deferred;
        t.tx_idle <- 0;
        t.rx_idle <- 0
      end
    end
  end

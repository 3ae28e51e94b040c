(* Circuit breaker over host health.

   The guest cannot make a dead host serve the rings; what it *can* do
   is stop paying for resets, retransmits and queue growth while the
   host is provably unhealthy. The breaker is the standard three-state
   machine, driven by the watchdog's observations:

     Closed    -- normal operation; consecutive failures count up.
     Open      -- after [threshold] consecutive failures: recovery work
                  is suppressed, non-control admissions shed. Cooldown
                  is counted in [allow] consultations (deterministic
                  observation windows, not wall time).
     Half_open -- cooldown elapsed: one probe window is allowed through.
                  Success re-closes; failure re-opens.

   A success in *any* state closes the breaker: health evidence beats
   the state machine (e.g. a stalled host resuming on its own, observed
   as ring progress, must not wait out a cooldown).

   Each breaker owns its state and its count of edges ([transitions]). *)

type state = Closed | Open | Half_open

let state_name = function Closed -> "closed" | Open -> "open" | Half_open -> "half-open"

type t = {
  threshold : int;  (* consecutive failures before opening *)
  cooldown : int;   (* Open-state allow consultations before a probe *)
  mutable state : state;
  mutable consecutive : int;
  mutable cooldown_left : int;
  mutable transitions : int;
}

let create ~threshold ~cooldown =
  if threshold <= 0 then invalid_arg "Breaker.create: threshold must be positive";
  if cooldown <= 0 then invalid_arg "Breaker.create: cooldown must be positive";
  { threshold; cooldown; state = Closed; consecutive = 0; cooldown_left = 0; transitions = 0 }

let state t = t.state
let transitions t = t.transitions
let consecutive_failures t = t.consecutive

let transition t s =
  if s <> t.state then begin
    t.state <- s;
    t.transitions <- t.transitions + 1;
    if Cio_telemetry.Trace.on () then
      Cio_telemetry.Trace.instant ~cat:Cio_telemetry.Kind.l2
        ("breaker-" ^ state_name s)
  end

let failure t =
  match t.state with
  | Closed ->
      t.consecutive <- t.consecutive + 1;
      if t.consecutive >= t.threshold then begin
        transition t Open;
        t.cooldown_left <- t.cooldown
      end
  | Half_open ->
      (* The probe failed: back to Open for another full cooldown. *)
      transition t Open;
      t.cooldown_left <- t.cooldown
  | Open -> ()

let success t =
  t.consecutive <- 0;
  match t.state with Closed -> () | Open | Half_open -> transition t Closed

let allow t =
  match t.state with
  | Closed | Half_open -> true
  | Open ->
      t.cooldown_left <- t.cooldown_left - 1;
      if t.cooldown_left <= 0 then begin
        transition t Half_open;
        true
      end
      else false

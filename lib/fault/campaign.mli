(** Deterministic fault-injection campaigns over the dual-boundary
    datapath, with self-healing verification and a leak verdict.

    A campaign runs a confidential echo session while a {!Plan.t} is
    injected through the discrete-event engine, then reports per fault
    how the datapath detected (or tolerated by construction) the fault
    and how much counted work recovery took. Same seed, byte-identical
    report. *)

type config = {
  watchdog_budget : int;
  target_echoes : int;
  max_steps : int;
  overload : Cio_overload.Plane.config option;
      (** stand up the unit's overload-control plane: admission control
          on sends, bounded TX coalescing, shared retry budget, circuit
          breaker on the watchdog (default [None] = classic campaign) *)
}

val default_config : config

type fault_report = {
  kind : Plan.kind;
  injected_at : int;
  classification : string;
  detected : bool;
  recovered_in_steps : int option;
  recovered_in_cycles : int option;
}

type t = {
  seed : int64;
  steps : int;
  sent : int;
  echoes : int;
  lost : int;
  integrity_failures : int;
  leaks : int;
  confined : int;
  sanitizer_double_fetches : int;
      (** same-epoch overlapping guest fetches seen by the runtime
          sanitizer, armed on the driver region with one epoch per pump
          step (the safe cionet datapath is expected to keep it 0 —
          single fetch by construction) *)
  sanitizer_mutated_fetches : int;
  stalls_detected : int;
  resets : int;
  reconnects : int;
  crashes : int;
  restarts : int;
  admitted : int;  (** sends admitted by the overload plane (0 when off) *)
  shed : int;      (** sends shed by the plane, all reasons (0 when off) *)
  breaker_transitions : int;  (** breaker state changes (0 when off) *)
  breaker_state : string;     (** final breaker state ("closed" when off) *)
  faults : fault_report list;
  survived : bool;
}

val all_recovered : t -> bool

val tamper_tls_record : bytes -> bytes option
(** Flip one bit inside a TCP payload (a TLS record in flight), fixing
    L3/L4 checksums so only the L5 AEAD can catch it. [None] if the frame
    carries no TCP payload. *)

val run : ?config:config -> Plan.t -> t

val pp : Format.formatter -> t -> unit

val to_json : t -> Cio_util.Json_lite.t
(** The report as one flat JSON object (the [cio-campaign-v1] payload):
    counted quantities only, deterministic per seed. *)

(** The five confidential-I/O architectures of Figure 5, built end-to-end
    on the same simulated substrate, plus the echo-workload runner that
    measures them on the figure's three axes (performance, TCB,
    observability). *)

open Cio_util

type kind = Syscall_l5 | Passthrough_l2 | Hardened_virtio | Tunneled | Dual_boundary

val kind_name : kind -> string
val all_kinds : kind list

type metrics = {
  kind : kind;
  completed : bool;
  messages : int;
  app_bytes : int;
  guest : Cost.meter;
  host : Cost.meter;
  sim_ns : int64;
  tap : Cio_observe.Observe.t;
  link_frames : int;
  link_bytes : int;
  crossings : int;
}

type tcb = { core : Cio_tcb.Tcb.component list; quarantined : Cio_tcb.Tcb.component list }

val tcb : kind -> tcb
(** The guest components a configuration's wiring runs: [core] sees
    application data, [quarantined] sits behind the L5 compartment gate
    (dual boundary only). Figure 5 and E6 count their lines. *)

val cycles_per_byte : metrics -> float
(** The performance axis: TEE cycles per application byte (lower is
    faster). *)

val run_echo :
  ?seed:int64 ->
  ?msg_size:int ->
  messages:int ->
  ?cionet_config:Cio_cionet.Config.t ->
  kind ->
  metrics
(** Run the echo workload against one configuration. [cionet_config]
    overrides the dual-boundary unit's device config (rx strategy,
    positioning, notifications); other kinds ignore it. Per-echo round
    trips are recorded into the ["echo.rtt_us.<kind>"] histogram of
    [Cio_telemetry.Metrics.default]. *)

(** {1 E16 decomposition ablation} *)

type transport_choice = T_virtio_hardened | T_cionet

val transport_name : transport_choice -> string

val run_echo_custom : transport:transport_choice -> quarantined:bool -> bool * float * int
(** (completed, cycles per app byte, L5 crossings) for a transport ×
    boundary-placement cell. *)

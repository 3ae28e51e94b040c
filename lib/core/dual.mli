(** The dual-boundary confidential unit (the paper's proposed design):
    safe L2 host boundary (cionet) + quarantined TCP/IP compartment +
    mandatory TLS at the lightweight L5 boundary. *)

open Cio_util
open Cio_frame
open Cio_tcpip
open Cio_compartment

type t
type listener

val create :
  ?cionet_config:Cio_cionet.Config.t ->
  ?mac:Addr.mac ->
  ?model:Cost.model ->
  ?crossing:Compartment.crossing ->
  ?zero_copy_send:bool ->
  ?copy_on_recv:bool ->
  ?overload:Cio_overload.Plane.config ->
  name:string ->
  ip:Addr.ipv4 ->
  neighbors:(Addr.ipv4 * Addr.mac) list ->
  psk:bytes ->
  psk_id:string ->
  rng:Rng.t ->
  now:(unit -> int64) ->
  unit ->
  t
(** [crossing] selects the L5 boundary mechanism (compartment gate by
    default; [Tee_switch] models the two-enclave alternative for E8).
    [overload] stands up the unit's overload-control plane: bounded TX
    coalescing, admission control on channel sends, a shared retry
    budget wired into TCP, and a circuit breaker the caller can attach
    to a {!Cio_cionet.Watchdog.t}. Omitted = classic unguarded unit. *)

val meter : t -> Cost.meter
val driver : t -> Cio_cionet.Driver.t
val stack : t -> Stack.t
val world : t -> Compartment.t
val app_domain : t -> Compartment.domain
val crossings : t -> int

val recovery : t -> Cio_observe.Recovery.t
(** Fault/recovery counters (resets, reconnects) for this unit. *)

val overload : t -> Cio_overload.Plane.t option
(** The unit's overload plane (present iff [?overload] was given). It
    survives {!restart_io}: breaker and retry budget describe the host,
    which a stack rebirth does not change. *)

val io_alive : t -> bool

val crash_io : t -> unit
(** Kill the quarantined I/O-stack domain. {!poll} becomes a no-op below
    L5; the app domain and its sealed data are untouched. *)

val restart_io : t -> unit
(** Stand the I/O stack back up: fresh device instance (generation bump,
    old region revoked — the host must re-attach), fresh TCP stack, and
    an empty channel list. Existing channels are dead; use {!reconnect}. *)

val connect : t -> dst:Addr.ipv4 -> dst_port:int -> Channel.t

val reconnect : t -> Channel.t -> Channel.t
(** Replace a failed channel: same destination, new TCP connection, new
    PSK session (TLS is fail-closed; there is no renegotiation). *)

val listen : t -> port:int -> listener
val accept : listener -> Channel.t option

val poll : t -> unit
(** One quantum: cross into the I/O domain once, poll driver + stack,
    then pump every channel's record layer on the app side. *)

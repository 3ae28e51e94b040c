(** The dual-boundary testbed: one simulated world shared by every
    end-to-end run (Figure 5, hot swap, padding, fault campaigns,
    overload, tests).

    A 10 Gbit/s link joins the confidential side on end [A] to a plain
    echo {!Peer} on end [B], over the fixed 10.0.0.1/.2 topology. Host
    observable link metadata lands in an {!Cio_observe.Observe} tap.
    {!attach_dual} puts the paper's dual-boundary unit, served by an
    honest cionet {!Cio_cionet.Host_model}, on end [A]; other
    configurations attach their own confidential side there. *)

open Cio_util
open Cio_frame
open Cio_netsim

(** {1 Topology} *)

val ip_tee : Addr.ipv4
val ip_peer : Addr.ipv4
val mac_tee : Addr.mac
val echo_port : int

val psk : bytes
(** The attestation-provisioned PSK both ends share. *)

val neighbors_tee : (Addr.ipv4 * Addr.mac) list
(** The confidential side's static neighbour table (the peer). *)

(** {1 The world} *)

type t = {
  engine : Engine.t;
  link : Link.t;
  peer : Peer.t;
  rng : Rng.t;
      (** the run's seed stream, already split once for the peer; split
          it for each confidential-side component, in creation order *)
  tap : Cio_observe.Observe.t;
  name : string;
  psk_id : string;
}

val create :
  ?latency_ns:int64 ->
  ?peer_codec:(bytes -> bytes) * (bytes -> bytes option) ->
  name:string ->
  psk_id:string ->
  seed:int64 ->
  unit ->
  t
(** A fresh engine (the trace clock follows its virtual time while
    tracing is on), a link of [latency_ns] (default 5 µs) and the echo
    peer serving {!echo_port}. [peer_codec] wraps every peer frame (a
    tunnel); the tap then records link traffic as tunnel blobs rather
    than frames. [name] names the tap and the unit {!attach_dual}
    builds; [psk_id] is the PSK identity both ends present. *)

val now : t -> unit -> int64

val transmit : t -> bytes -> unit
(** Send a frame from link end [A], the confidential side's host. *)

val step : t -> guest:(unit -> unit) -> host:(unit -> unit) -> by:int64 -> unit
(** One quantum: the guest, then its host, then the peer, then the
    engine advances [by] ns. *)

(** {1 The dual-boundary unit} *)

type dual = { bed : t; unit_ : Dual.t; host : Cio_cionet.Host_model.t }

val attach_dual :
  ?cionet_config:Cio_cionet.Config.t -> ?overload:Cio_overload.Plane.config -> t -> dual
(** A {!Dual} named after the testbed (seeded from the second split of
    the run's seed) behind an honest cionet host model on link end [A]. *)

val connect : dual -> Channel.t
(** A channel from the unit to the peer's echo service. *)

val pump : dual -> by:int64 -> unit
(** {!step} with the unit as guest and its host model as host. *)

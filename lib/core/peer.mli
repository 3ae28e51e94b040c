(** Plain remote endpoint on the simulated network: runs a stack + TLS in
    a trusted environment (the tenant's client or a remote service). *)

open Cio_util
open Cio_frame
open Cio_netsim
open Cio_tcpip

type t

val create :
  ?frame_codec:(bytes -> bytes) * (bytes -> bytes option) ->
  link:Link.t ->
  endpoint:Link.endpoint ->
  ip:Addr.ipv4 ->
  mac:Addr.mac ->
  neighbors:(Addr.ipv4 * Addr.mac) list ->
  psk:bytes ->
  psk_id:string ->
  rng:Rng.t ->
  now:(unit -> int64) ->
  unit ->
  t

val stack : t -> Stack.t
val meter : t -> Cost.meter
val echoed : t -> int

val connect : t -> dst:Addr.ipv4 -> dst_port:int -> Channel.t
val serve_echo : t -> port:int -> unit

val poll : t -> unit
(** Stack poll + accept + channel pump + echo service. *)

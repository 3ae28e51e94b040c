(** Secure L5 channel: a {!Cio_tls.Session.t} over a TCP connection in the
    (possibly untrusted) I/O stack, with the L5 boundary expressed as the
    [enter_io] wrapper and the §3.2 copy knobs. *)

open Cio_util
open Cio_tcpip
open Cio_tls

type t

val create :
  ?zero_copy_send:bool ->
  ?copy_on_recv:bool ->
  ?enter_io:((unit -> unit) -> unit) ->
  ?model:Cost.model ->
  ?overload:Cio_overload.Plane.t ->
  meter:Cost.meter ->
  session:Session.t ->
  stack:Stack.t ->
  conn:Tcp.conn ->
  unit ->
  t

val conn : t -> Tcp.conn
val error : t -> Session.error option

val start_handshake : t -> (unit, Session.error) result
(** Client side: emit the opening flight. *)

val send : t -> bytes -> (unit, Session.error) result
(** Seal and queue one message (app side; no boundary crossing). A
    message over {!Session.max_payload} is refused and the channel stays
    usable; any other error fails the channel for good. *)

val send_sub : t -> bytes -> off:int -> len:int -> (unit, Session.error) result
(** {!send} of the [len] bytes of the buffer from [off]. *)

type send_outcome =
  | Sent
  | Shed of Cio_overload.Pressure.reason
  | Send_error of Cio_tls.Session.error

val send_admitted :
  klass:Cio_overload.Admission.klass -> ?deadline:Cio_overload.Deadline.t -> t -> bytes ->
  send_outcome
(** {!send} behind the overload plane's admission decision (when the
    channel has one): blown deadline, open breaker (control exempt),
    then the token bucket — the shed happens before any sealing work is
    spent. Without a plane this is plain {!send}. *)

val outbox_bytes : t -> int
(** Sealed bytes queued for TCP (app-side backlog). *)

val io_pump : t -> bool
(** I/O-domain half: flush the outbox into TCP and harvest stream bytes.
    The caller must already be inside the I/O domain. Returns whether any
    bytes crossed the L5 boundary (for handoff-crossing accounting). *)

val app_pump : t -> unit
(** App-side half: run harvested bytes through the record layer. *)

val pump : t -> unit
(** Standalone convenience: one boundary crossing around {!io_pump}, then
    {!app_pump}. *)

val recv_into : t -> bytes -> int
(** [recv_into ch buf] copies the next received message into [buf] from
    offset 0 and returns its length, or -1 when none is waiting. Raises
    [Invalid_argument], leaving the message queued, when [buf] is shorter
    than it; a buffer of {!Session.max_payload} bytes always fits. *)

val recv : t -> bytes option
(** {!recv_into} a buffer of the message's own length. *)

val is_established : t -> bool

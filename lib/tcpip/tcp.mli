(** TCP (RFC 9293 subset): handshake, sliding-window data transfer,
    reassembly, retransmission with backoff, fast retransmit, slow start /
    congestion avoidance, graceful close, RST handling.

    Polling-driven: the owner feeds parsed segments via {!input} and calls
    {!tick} from its poll loop; there are no callbacks or notifications,
    matching the paper's no-notification principle. *)

open Cio_util
open Cio_frame

type state =
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed

val state_name : state -> string

type conn
type listener
type t

val create :
  ?model:Cost.model ->
  ?meter:Cost.meter ->
  ?retry_budget:Cio_overload.Retry_budget.t ->
  local_ip:Addr.ipv4 ->
  send_segment:(dst:Addr.ipv4 -> Tcp_wire.t -> Byteq.t -> unit) ->
  now:(unit -> int64) ->
  rng:Rng.t ->
  unit ->
  t
(** MSS 1460 and initial RTO 200 ms; a connection fails after 8
    retransmits of one segment. [send_segment ~dst seg q] sends one
    segment; its payload is the [seg.payload_len] bytes of [q] from
    position [seg.payload_off]. [q] is only read during the call. *)

val meter : t -> Cost.meter
val segments_in : t -> int
val segments_out : t -> int

val retransmits : t -> int
(** Segments re-sent by either recovery path (fast retransmit or RTO). *)

val conn_state : conn -> state
val conn_error : conn -> string option

val conn_remote : conn -> Addr.ipv4 * int
(** Remote (ip, port) — what a reconnect after an I/O-stack restart needs
    to re-dial. *)

val connect : t -> ?src_port:int -> dst:Addr.ipv4 -> dst_port:int -> unit -> conn
val listen : t -> port:int -> ?backlog:int -> unit -> listener
val accept : listener -> conn option

val send : t -> conn -> bytes -> int
(** Queue application data; returns bytes accepted (0 unless the
    connection is open for sending). Call {!flush} to segment. *)

val send_sub : t -> conn -> bytes -> off:int -> len:int -> int
(** {!send} of the [len] bytes of the buffer from [off]. *)

val flush : t -> conn -> unit

val recv : t -> conn -> max:int -> bytes
val recv_available : conn -> int

val eof : conn -> bool
(** Peer FIN received and the reassembly buffer fully drained. *)

val close : t -> conn -> unit

val input : t -> src:Addr.ipv4 -> bytes -> Tcp_wire.t -> unit
(** [input t ~src buf seg] processes one inbound segment (already
    IP-demultiplexed) whose payload view points into [buf]. Nothing
    keeps [buf] past the call: delivered bytes are copied into the
    receive buffer, and out-of-order ones into the reassembly stash. *)

val tick : t -> unit
(** Run retransmission / TIME-WAIT timers against the [now] clock. *)

val gc : t -> unit
(** Drop all closed connections, including errored ones. *)

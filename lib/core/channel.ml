(* Secure L5 channel: a TLS session running over a TCP connection in the
   (possibly untrusted) I/O stack.

   The channel is split into two halves around the L5 boundary:

   - [io_pump] runs *inside* the I/O domain: it flushes the app's sealed
     outbox into TCP and harvests raw stream bytes. In the dual-boundary
     design the confidential unit batches the io_pump of every channel
     under a single compartment crossing per quantum.
   - [app_pump] runs on the app side: it copies harvested bytes out of
     the stack's reach (when [copy_on_recv]), feeds the record layer and
     surfaces decrypted messages.

   [zero_copy_send] models §3.2's "trusted component allocates": with it,
   the app seals directly into I/O-domain buffers and saves the crossing
   copy; without it each outbound record pays one extra copy. *)

open Cio_util
open Cio_tcpip
open Cio_tls

type t = {
  session : Session.t;
  stack : Stack.t;
  conn : Tcp.conn;
  enter_io : (unit -> unit) -> unit;
  (* The overload plane guarding this channel's compartment boundary;
     [None] means every send is admitted unconditionally (classic). *)
  overload : Cio_overload.Plane.t option;
  zero_copy_send : bool;
  copy_on_recv : bool;
  meter : Cost.meter;
  model : Cost.model;
  outbox : Byteq.t;     (* sealed wire bytes awaiting TCP *)
  (* Harvested stream bytes, each chunk behind its 4-byte length: the app
     side copies (and pays for) them chunk by chunk, as harvested. *)
  raw_in : Byteq.t;
  inbox : bytes Queue.t;
  mutable failed : Session.error option;
  mutable received_messages : int;
  io_step : unit -> unit;  (* one [io_pump], built once for [pump] *)
}

let chunk_header = 4

(* I/O-domain half: must be called within the I/O domain (the caller
   decides how the boundary is crossed). Returns whether any bytes moved
   across the L5 boundary, so the caller can charge handoff crossings. *)
let io_pump t =
  let tcp = Stack.tcp t.stack in
  (* Flush as much of the outbox as TCP will take, straight from the
     outbox's storage. *)
  let queued = Byteq.length t.outbox in
  let sent =
    queued > 0
    &&
    let accepted =
      Tcp.send_sub tcp t.conn (Byteq.storage t.outbox) ~off:(Byteq.front t.outbox) ~len:queued
    in
    Byteq.drop t.outbox accepted;
    accepted > 0
    && begin
         Tcp.flush tcp t.conn;
         true
       end
  in
  (* Harvest inbound stream bytes. *)
  let n = Int.min 65536 (Tcp.recv_available t.conn) in
  if n > 0 then begin
    let at = Byteq.extend t.raw_in chunk_header in
    Bytes.set_int32_le (Byteq.storage t.raw_in) at (Int32.of_int n);
    ignore (Tcp.recv_into tcp t.conn t.raw_in ~max:n)
  end;
  sent || n > 0

let create ?(zero_copy_send = false) ?(copy_on_recv = false) ?(enter_io = fun f -> f ())
    ?(model = Cost.default) ?overload ~meter ~session ~stack ~conn () =
  let outbox = Byteq.create 4096 and raw_in = Byteq.create 4096 and inbox = Queue.create () in
  let rec t =
    {
      session;
      stack;
      conn;
      enter_io;
      overload;
      zero_copy_send;
      copy_on_recv;
      meter;
      model;
      outbox;
      raw_in;
      inbox;
      failed = None;
      received_messages = 0;
      io_step = (fun () -> ignore (io_pump t));
    }
  in
  t

let conn t = t.conn
let error t = t.failed
let received_messages t = t.received_messages

let fail t e = match t.failed with None -> t.failed <- Some e | Some _ -> ()

let charge_crossing_copy t len =
  if not t.zero_copy_send then Cost.charge t.meter Cost.Copy (Cost.copy_cost t.model len)

(* App side: queue sealed bytes for the I/O domain. The non-zero-copy
   path pays the L5 crossing copy here. *)
let queue_wire t wire =
  charge_crossing_copy t (Bytes.length wire);
  Byteq.add_bytes t.outbox wire

let rec queue_flights t = function
  | [] -> ()
  | wire :: rest ->
      queue_wire t wire;
      queue_flights t rest

(* App-side half: move harvested bytes through the record layer, one
   harvested chunk at a time. *)
let rec app_pump t =
  let q = t.raw_in in
  if Byteq.length q > 0 then begin
    let buf = Byteq.storage q and front = Byteq.front q in
    let len = Int32.to_int (Bytes.get_int32_le buf front) in
    if t.copy_on_recv then
      (* Copy out of the I/O domain's reach before parsing. *)
      Cost.charge t.meter Cost.Copy (Cost.copy_cost t.model len);
    (match t.failed with
    | Some _ -> ()
    | None -> (
        let before = Queue.length t.inbox in
        let err =
          Session.feed_into t.session buf ~off:(front + chunk_header) ~len t.inbox
        in
        queue_flights t (Session.take_flights t.session);
        t.received_messages <- t.received_messages + (Queue.length t.inbox - before);
        match err with Some e -> fail t e | None -> ()));
    Byteq.drop q (chunk_header + len);
    app_pump t
  end

(* Standalone pump for single-boundary users. *)
let pump t =
  t.enter_io t.io_step;
  app_pump t

(* Seal straight into the outbox: the record's bytes are written once.
   A payload over the record limit is refused with nothing sealed and
   the session intact, so the channel lives on; any other error fails
   it. *)
let send t payload =
  match t.failed with
  | Some e -> Error e
  | None -> (
      let before = Byteq.length t.outbox in
      match Session.send_data_into t.session payload t.outbox with
      | Error e ->
          if not (Session.is_established t.session && Bytes.length payload > Session.max_payload)
          then fail t e;
          Error e
      | Ok () ->
          charge_crossing_copy t (Byteq.length t.outbox - before);
          Ok ())

type send_outcome =
  | Sent
  | Shed of Cio_overload.Pressure.reason
  | Send_error of Session.error

(* Admission-controlled send: the overload plane's decision point sits
   exactly at the L5 boundary, before any sealing work is spent — a shed
   request costs the app nothing but the call. *)
let send_admitted ?(klass = Cio_overload.Admission.Interactive) ?deadline t payload =
  match t.overload with
  | None -> (
      match send t payload with Ok () -> Sent | Error e -> Send_error e)
  | Some plane -> (
      match Cio_overload.Plane.admit ?deadline plane klass with
      | Cio_overload.Pressure.Backpressure reason -> Shed reason
      | Cio_overload.Pressure.Accepted -> (
          match send t payload with Ok () -> Sent | Error e -> Send_error e))

let outbox_bytes t = Byteq.length t.outbox
let recv t = if Queue.is_empty t.inbox then None else Some (Queue.take t.inbox)
let is_established t = Session.is_established t.session

let start_handshake t =
  match Session.initiate t.session with
  | Ok flights ->
      queue_flights t flights;
      Ok ()
  | Error e ->
      fail t e;
      Error e

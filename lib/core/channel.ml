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
  mutable raw_in : bytes list;  (* harvested stream bytes, newest first *)
  inbox : bytes Queue.t;
  mutable failed : Session.error option;
  mutable received_messages : int;
}

let create ?(zero_copy_send = false) ?(copy_on_recv = false) ?(enter_io = fun f -> f ())
    ?(model = Cost.default) ?overload ~meter ~session ~stack ~conn () =
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
    outbox = Byteq.create 4096;
    raw_in = [];
    inbox = Queue.create ();
    failed = None;
    received_messages = 0;
  }

let conn t = t.conn
let error t = t.failed
let received_messages t = t.received_messages

let fail t e = if t.failed = None then t.failed <- Some e

(* App side: queue sealed bytes for the I/O domain. The non-zero-copy
   path pays the L5 crossing copy here. *)
let queue_wire t wire =
  if not t.zero_copy_send then
    Cost.charge t.meter Cost.Copy (Cost.copy_cost t.model (Bytes.length wire));
  Byteq.add_bytes t.outbox wire

(* I/O-domain half: must be called within the I/O domain (the caller
   decides how the boundary is crossed). Returns whether any bytes moved
   across the L5 boundary, so the caller can charge handoff crossings. *)
let io_pump t =
  let moved = ref false in
  (* Flush as much of the outbox as TCP will take, straight from the
     outbox's storage. *)
  let tcp = Stack.tcp t.stack in
  if Byteq.length t.outbox > 0 then begin
    let accepted =
      Byteq.consume t.outbox (fun buf off len -> Tcp.send_sub tcp t.conn buf ~off ~len)
    in
    if accepted > 0 then begin
      moved := true;
      Tcp.flush tcp t.conn
    end
  end;
  (* Harvest inbound stream bytes. *)
  let b = Tcp.recv tcp t.conn ~max:65536 in
  if Bytes.length b > 0 then begin
    moved := true;
    t.raw_in <- b :: t.raw_in
  end;
  !moved

(* App-side half: move harvested bytes through the record layer. *)
let app_pump t =
  let chunks = List.rev t.raw_in in
  t.raw_in <- [];
  List.iter
    (fun b ->
      if t.copy_on_recv then
        (* Copy out of the I/O domain's reach before parsing. *)
        Cost.charge t.meter Cost.Copy (Cost.copy_cost t.model (Bytes.length b));
      if t.failed = None then begin
        let result = Session.feed t.session b in
        List.iter (fun w -> queue_wire t w) result.Session.outputs;
        List.iter
          (fun msg ->
            t.received_messages <- t.received_messages + 1;
            Queue.add msg t.inbox)
          result.Session.app_data;
        match result.Session.err with Some e -> fail t e | None -> ()
      end)
    chunks

(* Standalone pump for single-boundary users. *)
let pump t =
  t.enter_io (fun () -> ignore (io_pump t));
  app_pump t

let send t payload =
  match t.failed with
  | Some e -> Error e
  | None -> (
      match Session.send_data t.session payload with
      | Error e ->
          fail t e;
          Error e
      | Ok wire ->
          queue_wire t wire;
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
let pending t = Queue.length t.inbox
let is_established t = Session.is_established t.session

let start_handshake t =
  match Session.initiate t.session with
  | Ok flights ->
      List.iter (fun w -> queue_wire t w) flights;
      Ok ()
  | Error e ->
      fail t e;
      Error e

(* Plain (non-confidential) remote endpoint on the simulated network: the
   tenant's client, a remote service, or the far end of a tunnel. Runs
   the same stack and TLS code but in a trusted environment — no
   compartment, no distrust copies — and its cycles are charged to its
   own meter, not the TEE's. *)

open Cio_util
open Cio_netsim
open Cio_tcpip
open Cio_tls

type t = {
  stack : Stack.t;
  meter : Cost.meter;
  psk : bytes;
  psk_id : string;
  rng : Rng.t;
  (* The echo service's one message buffer: each message is received
     into it and echoed from it. *)
  echo_buf : bytes;
  mutable channels : Channel.t list;
  mutable echo_channels : Channel.t list;
  mutable listeners : Tcp.listener list;  (* every one an echo service *)
}

let create ?frame_codec ~link ~endpoint ~ip ~mac ~neighbors ~psk ~psk_id ~rng ~now () =
  let rxq = Fifo.create Bytes.empty in
  Link.attach link endpoint (Fifo.push rxq);
  let encode = match frame_codec with Some (e, _) -> e | None -> Fun.id in
  (* The next frame off the link, or [Bytes.empty]: an empty queue and a
     frame the codec rejects both end the stack's drain. *)
  let recv =
    match frame_codec with
    | None -> fun () -> if Fifo.is_empty rxq then Bytes.empty else Fifo.pop rxq
    | Some (_, decode) -> (
        fun () ->
          if Fifo.is_empty rxq then Bytes.empty
          else match decode (Fifo.pop rxq) with Some f -> f | None -> Bytes.empty)
  in
  let netif =
    {
      Netif.mac;
      mtu = 1500;
      transmit = (fun frame -> Link.send link ~src:endpoint (encode frame));
      poll = (fun () -> match recv () with f when f == Bytes.empty -> None | f -> Some f);
    }
  in
  let meter = Cost.meter () in
  {
    stack = Stack.create ~meter ~recv ~netif ~ip ~neighbors ~now ~rng ();
    meter;
    psk;
    psk_id;
    rng;
    echo_buf = Bytes.create Session.max_payload;
    channels = [];
    echo_channels = [];
    listeners = [];
  }

let make_channel t ~role ~conn =
  let session = Session.create ~meter:t.meter ~role ~psk:t.psk ~psk_id:t.psk_id ~rng:t.rng () in
  let ch = Channel.create ~meter:t.meter ~session ~stack:t.stack ~conn () in
  t.channels <- ch :: t.channels;
  ch

let connect t ~dst ~dst_port =
  let conn = Tcp.connect (Stack.tcp t.stack) ~dst ~dst_port () in
  let ch = make_channel t ~role:Session.Client ~conn in
  ignore (Channel.start_handshake ch);
  ch

let serve_echo t ~port = t.listeners <- Tcp.listen (Stack.tcp t.stack) ~port :: t.listeners

let rec accept_all t l =
  match Tcp.accept l with
  | None -> ()
  | Some conn ->
      let ch = make_channel t ~role:Session.Server ~conn in
      t.echo_channels <- ch :: t.echo_channels;
      accept_all t l

let rec accept_listeners t = function
  | [] -> ()
  | l :: rest ->
      accept_all t l;
      accept_listeners t rest

(* Echo service: bounce every received message straight back. *)
let rec echo buf ch =
  let len = Channel.recv_into ch buf in
  if len >= 0 then begin
    ignore (Channel.send_sub ch buf ~off:0 ~len);
    echo buf ch
  end

let rec echo_all buf = function
  | [] -> ()
  | ch :: rest ->
      echo buf ch;
      echo_all buf rest

let poll t =
  Stack.poll t.stack;
  (* Accept pending connections on every listener. *)
  accept_listeners t t.listeners;
  List.iter Channel.pump t.channels;
  echo_all t.echo_buf t.echo_channels

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
  mutable channels : Channel.t list;
  mutable echo_channels : Channel.t list;
  mutable listeners : (Tcp.listener * [ `Echo | `Sink ]) list;
  mutable echoed : int;
}

let create_with_netif ~netif ~ip ~neighbors ~psk ~psk_id ~rng ~now () =
  let meter = Cost.meter () in
  let stack = Stack.create ~meter ~netif ~ip ~neighbors ~now ~rng () in
  {
    stack;
    meter;
    psk;
    psk_id;
    rng;
    channels = [];
    echo_channels = [];
    listeners = [];
    echoed = 0;
  }

let create ?frame_codec ~link ~endpoint ~ip ~mac ~neighbors ~psk ~psk_id ~rng ~now () =
  let rxq = Fifo.create Bytes.empty in
  Link.attach link endpoint (Fifo.push rxq);
  let encode, decode =
    match frame_codec with
    | Some (e, d) -> (e, d)
    | None -> ((fun f -> f), fun f -> Some f)
  in
  let netif =
    {
      Netif.mac;
      mtu = 1500;
      transmit = (fun frame -> Link.send link ~src:endpoint (encode frame));
      poll = (fun () -> if Fifo.is_empty rxq then None else decode (Fifo.pop rxq));
    }
  in
  create_with_netif ~netif ~ip ~neighbors ~psk ~psk_id ~rng ~now ()

let stack t = t.stack
let meter t = t.meter
let echoed t = t.echoed

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

let serve t ~port mode =
  let l = Tcp.listen (Stack.tcp t.stack) ~port () in
  t.listeners <- (l, mode) :: t.listeners

let serve_echo t ~port = serve t ~port `Echo

let rec accept_all t l mode =
  match Tcp.accept l with
  | None -> ()
  | Some conn ->
      let ch = make_channel t ~role:Session.Server ~conn in
      (match mode with `Echo -> t.echo_channels <- ch :: t.echo_channels | `Sink -> ());
      accept_all t l mode

let rec accept_listeners t = function
  | [] -> ()
  | (l, mode) :: rest ->
      accept_all t l mode;
      accept_listeners t rest

(* Echo service: bounce every received message straight back. *)
let rec echo t ch =
  match Channel.recv ch with
  | Some msg ->
      t.echoed <- t.echoed + 1;
      ignore (Channel.send ch msg);
      echo t ch
  | None -> ()

let rec echo_all t = function
  | [] -> ()
  | ch :: rest ->
      echo t ch;
      echo_all t rest

let poll t =
  Stack.poll t.stack;
  (* Accept pending connections on every listener. *)
  accept_listeners t t.listeners;
  List.iter Channel.pump t.channels;
  echo_all t t.echo_channels

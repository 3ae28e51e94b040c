(* Point-to-point duplex link with latency, serialization delay and FIFO
   queueing, plus optional in-transit tamper hooks (the adversary sits
   there) and transit taps (the observer sits there).

   A frame changes owner on the link: the sender gives away the buffer
   it passes to [send], and the one receiver it is delivered to owns it.
   Taps only read it. A tamper hook that delivers a frame twice, or
   keeps it to deliver later as well, copies it. *)

type endpoint = A | B

let peer = function A -> B | B -> A

let endpoint_name = function A -> "A" | B -> "B"

(* A tamper hook maps one in-flight frame to the frames actually delivered
   (empty = drop; several = duplication/injection), each with extra delay. *)
type delivery = { extra_delay_ns : int64; frame : bytes }

type tamper = bytes -> delivery list

type direction_state = {
  mutable busy_until : int64;  (* serialization FIFO *)
  mutable tamper : tamper option;
  mutable frames : int;
  mutable bytes : int;
}

type t = {
  engine : Engine.t;
  latency_ns : int64;
  gbps : float;
  mutable rx_a : (bytes -> unit) option;
  mutable rx_b : (bytes -> unit) option;
  a_to_b : direction_state;
  b_to_a : direction_state;
  mutable on_transit : (time:int64 -> src:endpoint -> bytes -> unit) option;
}

let direction t src = match src with A -> t.a_to_b | B -> t.b_to_a

let create ?(latency_ns = 10_000L) ?(gbps = 10.0) engine =
  let dir () = { busy_until = 0L; tamper = None; frames = 0; bytes = 0 } in
  {
    engine;
    latency_ns;
    gbps;
    rx_a = None;
    rx_b = None;
    a_to_b = dir ();
    b_to_a = dir ();
    on_transit = None;
  }

let attach t ep rx = match ep with A -> t.rx_a <- Some rx | B -> t.rx_b <- Some rx

let set_tamper t ~src tamper = (direction t src).tamper <- tamper
let set_transit_tap t tap = t.on_transit <- tap

let frames_sent t ~src = (direction t src).frames
let bytes_sent t ~src = (direction t src).bytes

let serialization_ns t nbytes =
  (* bytes * 8 bits / (gbps bits per ns) *)
  Int64.of_float (float_of_int (nbytes * 8) /. t.gbps)

let deliver t dst frame =
  let rx = match dst with A -> t.rx_a | B -> t.rx_b in
  match rx with
  | Some rx -> rx frame
  | None -> ()  (* unattached endpoint: frame lost on the floor *)

let send t ~src frame =
  let dir = direction t src in
  dir.frames <- dir.frames + 1;
  dir.bytes <- dir.bytes + Bytes.length frame;
  (match t.on_transit with
  | Some tap -> tap ~time:(Engine.now t.engine) ~src frame
  | None -> ());
  let now = Engine.now t.engine in
  let start = if dir.busy_until > now then dir.busy_until else now in
  let tx_done = Int64.add start (serialization_ns t (Bytes.length frame)) in
  dir.busy_until <- tx_done;
  let arrival = Int64.add tx_done t.latency_ns and dst = peer src in
  match dir.tamper with
  | None -> Engine.schedule_at t.engine ~time:arrival (fun () -> deliver t dst frame)
  | Some f ->
      List.iter
        (fun d ->
          Engine.schedule_at t.engine ~time:(Int64.add arrival d.extra_delay_ns) (fun () ->
              deliver t dst d.frame))
        (f frame)

(* Point-to-point duplex link with latency, serialization delay and FIFO
   queueing, plus optional in-transit tamper hooks (the adversary sits
   there) and transit taps (the observer sits there).

   A frame changes owner on the link: the sender gives away the buffer
   it passes to [send], and the one receiver it is delivered to owns it.
   Taps only read it. A tamper hook that delivers a frame twice, or
   keeps it to deliver later as well, copies it.

   Each direction keeps its frames in flight in one ring, ordered by
   arrival time and, at equal times, by send order. Every delivery
   schedules one engine event running the direction's [deliver], built
   once in [create], which hands the ring's front frame to the receiver.
   The engine runs a direction's events in exactly that order, so the
   front frame is always the one arriving. An untampered frame joins at
   the back; a tampered one, which may arrive after frames sent later,
   is inserted after every frame arriving no later than it. *)

open Cio_util

type endpoint = A | B

let peer = function A -> B | B -> A

let endpoint_name = function A -> "A" | B -> "B"

(* A tamper hook maps one in-flight frame to the frames actually delivered
   (empty = drop; several = duplication/injection), each with extra delay. *)
type delivery = { extra_delay_ns : int64; frame : bytes }

type tamper = bytes -> delivery list

type direction_state = {
  mutable busy_until : int;  (* serialization FIFO *)
  mutable tamper : tamper option;
  mutable frames : int;
  mutable bytes : int;
  mutable rx : bytes -> unit;  (* the receiving endpoint's *)
  arrivals : int Fifo.t;  (* ns, ascending, one per frame in flight *)
  in_flight : bytes Fifo.t;
  deliver : unit -> unit;
}

type t = {
  engine : Engine.t;
  latency_ns : int;
  gbps : float;
  a_to_b : direction_state;
  b_to_a : direction_state;
  mutable on_transit : (time:int64 -> src:endpoint -> bytes -> unit) option;
}

let direction t src = match src with A -> t.a_to_b | B -> t.b_to_a

(* A frame for an unattached endpoint is lost on the floor. *)
let unattached (_ : bytes) = ()

let direction_state () =
  let arrivals = Fifo.create 0 and in_flight = Fifo.create Bytes.empty in
  let rec dir =
    {
      busy_until = 0;
      tamper = None;
      frames = 0;
      bytes = 0;
      rx = unattached;
      arrivals;
      in_flight;
      deliver =
        (fun () ->
          ignore (Fifo.pop arrivals);
          dir.rx (Fifo.pop in_flight));
    }
  in
  dir

let create ~latency_ns ~gbps engine =
  {
    engine;
    latency_ns = Int64.to_int latency_ns;
    gbps;
    a_to_b = direction_state ();
    b_to_a = direction_state ();
    on_transit = None;
  }

let attach t ep rx = (direction t (peer ep)).rx <- rx

let set_tamper t ~src tamper = (direction t src).tamper <- tamper
let set_transit_tap t tap = t.on_transit <- tap

let frames_sent t ~src = (direction t src).frames
let bytes_sent t ~src = (direction t src).bytes

let serialization_ns t nbytes =
  (* bytes * 8 bits / (gbps bits per ns) *)
  int_of_float (float_of_int (nbytes * 8) /. t.gbps)

(* Position for a frame arriving at [arrival]: after every frame in
   flight that arrives no later. *)
let rec position dir arrival i =
  if i > 0 && Fifo.get dir.arrivals (i - 1) > arrival then position dir arrival (i - 1) else i

(* Schedule first: a time in the past raises before anything is queued. *)
let enqueue t dir arrival frame =
  Engine.schedule_at_ns t.engine ~time:arrival dir.deliver;
  let i = position dir arrival (Fifo.length dir.arrivals) in
  Fifo.insert dir.arrivals i arrival;
  Fifo.insert dir.in_flight i frame

let send t ~src frame =
  let dir = direction t src in
  dir.frames <- dir.frames + 1;
  dir.bytes <- dir.bytes + Bytes.length frame;
  (match t.on_transit with
  | Some tap -> tap ~time:(Engine.now t.engine) ~src frame
  | None -> ());
  let now = Engine.now_ns t.engine in
  let start = if dir.busy_until > now then dir.busy_until else now in
  let tx_done = start + serialization_ns t (Bytes.length frame) in
  dir.busy_until <- tx_done;
  let arrival = tx_done + t.latency_ns in
  match dir.tamper with
  | None -> enqueue t dir arrival frame
  | Some f ->
      List.iter
        (fun d -> enqueue t dir (arrival + Int64.to_int d.extra_delay_ns) d.frame)
        (f frame)

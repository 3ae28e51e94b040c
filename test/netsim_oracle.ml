(* Reference oracle: the discrete-event engine and the link as they were
   when every scheduled event was a fresh record holding its own closure
   and a boxed [int64] time, and every frame in flight was captured in
   such a closure. Kept verbatim (test-only) so the slot-reusing engine
   and the link's in-flight rings can be checked against them by
   equivalence properties. The link shares the library's [endpoint] and
   [delivery] types, so one tamper hook drives both. Not part of any
   library; nothing outside the tests may call it. *)

module Engine = struct
  (* Discrete-event simulation core.

     A single virtual clock (nanoseconds) and a binary-heap agenda. Ties are
     broken by insertion order so runs are fully deterministic. All network
     latency/bandwidth behaviour in the reproduction is expressed as events
     on this engine. *)

  type event = { time : int64; seq : int; action : unit -> unit }

  type t = {
    mutable now : int64;
    mutable heap : event array;
    mutable size : int;
    mutable next_seq : int;
    mutable stopped : bool;
  }

  let create () = { now = 0L; heap = Array.make 64 { time = 0L; seq = 0; action = ignore }; size = 0; next_seq = 0; stopped = false }

  let now t = t.now

  let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let grow t =
    let bigger = Array.make (2 * Array.length t.heap) t.heap.(0) in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger

  let swap t i j =
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(j);
    t.heap.(j) <- tmp

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if earlier t.heap.(i) t.heap.(parent) then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && earlier t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.size && earlier t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let schedule_at t ~time action =
    if time < t.now then invalid_arg "Engine.schedule_at: time in the past";
    if t.size = Array.length t.heap then grow t;
    t.heap.(t.size) <- { time; seq = t.next_seq; action };
    t.next_seq <- t.next_seq + 1;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let schedule t ~after action = schedule_at t ~time:(Int64.add t.now after) action

  let pending t = t.size

  (* Drop the earliest event from the heap. *)
  let remove_top t =
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t 0
    end

  let step t =
    if t.size = 0 then false
    else begin
      let ev = t.heap.(0) in
      remove_top t;
      t.now <- ev.time;
      ev.action ();
      true
    end

  let stop t = t.stopped <- true

  (* Run events in time order until the agenda is empty, [stop] is called,
     or (when [bounded]) the next event lies after [horizon]. A bounded run
     that was not stopped ends with the clock at [horizon]. The loop builds
     no closure and no option, so advancing an idle engine allocates only
     the new clock value. *)
  let rec drain t ~bounded horizon =
    if (not t.stopped) && t.size > 0 then begin
      let ev = t.heap.(0) in
      if (not bounded) || ev.time <= horizon then begin
        remove_top t;
        t.now <- ev.time;
        ev.action ();
        drain t ~bounded horizon
      end
    end

  let run_to t ~bounded horizon =
    t.stopped <- false;
    drain t ~bounded horizon;
    if bounded && (not t.stopped) && horizon > t.now then t.now <- horizon

  let run ?until t =
    match until with
    | None -> run_to t ~bounded:false 0L
    | Some h -> run_to t ~bounded:true h

  let advance t ~by = run_to t ~bounded:true (Int64.add t.now by)
end

module Link = struct
  (* Point-to-point duplex link with latency, serialization delay and FIFO
     queueing, plus optional in-transit tamper hooks (the adversary sits
     there) and transit taps (the observer sits there).

     A frame changes owner on the link: the sender gives away the buffer
     it passes to [send], and the one receiver it is delivered to owns it.
     Taps only read it. A tamper hook that delivers a frame twice, or
     keeps it to deliver later as well, copies it. *)

  type endpoint = Cio_netsim.Link.endpoint = A | B

  let peer = function A -> B | B -> A

  let endpoint_name = function A -> "A" | B -> "B"

  (* A tamper hook maps one in-flight frame to the frames actually delivered
     (empty = drop; several = duplication/injection), each with extra delay. *)
  type delivery = Cio_netsim.Link.delivery = { extra_delay_ns : int64; frame : bytes }

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

  let create ~latency_ns ~gbps engine =
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
end

(* Discrete-event simulation core.

   A single virtual clock (nanoseconds) and a binary-heap agenda. Ties are
   broken by insertion order so runs are fully deterministic. All network
   latency/bandwidth behaviour in the reproduction is expressed as events
   on this engine.

   The agenda is an array of event slots allocated once and reused: the
   first [size] form the heap, the rest are free. Scheduling fills a free
   slot, and a slot that fires goes back to the free part, so a steady
   stream of events allocates nothing. Times are native ints inside; the
   [int64] interface converts at the boundary, and [now] boxes the clock
   once per value read, not once per event. *)

type slot = { mutable time : int; mutable seq : int; mutable action : unit -> unit }

type t = {
  mutable now : int;
  mutable now_boxed : int64;  (* the last clock value [now] returned *)
  mutable heap : slot array;
  mutable size : int;
  mutable next_seq : int;
  mutable stopped : bool;
}

let free_slot _ = { time = 0; seq = 0; action = ignore }

let create () =
  {
    now = 0;
    now_boxed = 0L;
    heap = Array.init 64 free_slot;
    size = 0;
    next_seq = 0;
    stopped = false;
  }

let now_ns t = t.now

let now t =
  if Int64.to_int t.now_boxed <> t.now then t.now_boxed <- Int64.of_int t.now;
  t.now_boxed

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let n = Array.length t.heap in
  t.heap <- Array.init (2 * n) (fun i -> if i < n then t.heap.(i) else free_slot i)

(* Both sifts move a hole rather than swapping: each step moves one
   slot into the hole, and [s] is written once, where the hole stops. *)
let rec sift_up heap s i =
  let parent = (i - 1) / 2 in
  if i > 0 && earlier s heap.(parent) then begin
    heap.(i) <- heap.(parent);
    sift_up heap s parent
  end
  else heap.(i) <- s

(* Over the first [size] slots. *)
let rec sift_down heap size s i =
  let l = (2 * i) + 1 in
  if l >= size then heap.(i) <- s
  else begin
    let c = if l + 1 < size && earlier heap.(l + 1) heap.(l) then l + 1 else l in
    if earlier heap.(c) s then begin
      heap.(i) <- heap.(c);
      sift_down heap size s c
    end
    else heap.(i) <- s
  end

let schedule_at_ns t ~time action =
  if time < t.now then invalid_arg "Engine.schedule_at: time in the past";
  if t.size = Array.length t.heap then grow t;
  let s = t.heap.(t.size) in
  s.time <- time;
  s.seq <- t.next_seq;
  s.action <- action;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t.heap s (t.size - 1)

let schedule_at t ~time action = schedule_at_ns t ~time:(Int64.to_int time) action
let schedule t ~after action = schedule_at_ns t ~time:(t.now + Int64.to_int after) action

let pending t = t.size

(* Take the earliest event off the heap, advance the clock to it and run
   it. Its slot joins the free part before the action runs, so the
   action may reuse it; the action is read before it runs. A free slot
   keeps its last action until it is reused. *)
let fire t =
  let s = t.heap.(0) in
  t.size <- t.size - 1;
  let last = t.heap.(t.size) in
  t.heap.(t.size) <- s;
  if t.size > 0 then sift_down t.heap t.size last 0;
  t.now <- s.time;
  s.action ()

let step t =
  if t.size = 0 then false
  else begin
    fire t;
    true
  end

let stop t = t.stopped <- true

(* Run events in time order until the agenda is empty, [stop] is called,
   or (when [bounded]) the next event lies after [horizon]. A bounded run
   that was not stopped ends with the clock at [horizon]. The loop builds
   no closure and no option, and the clock is a native int, so advancing
   the engine allocates nothing. *)
let rec drain t ~bounded horizon =
  if (not t.stopped) && t.size > 0 && ((not bounded) || t.heap.(0).time <= horizon) then begin
    fire t;
    drain t ~bounded horizon
  end

let run_to t ~bounded horizon =
  t.stopped <- false;
  drain t ~bounded horizon;
  if bounded && (not t.stopped) && horizon > t.now then t.now <- horizon

let run ?until t =
  match until with
  | None -> run_to t ~bounded:false 0
  | Some h -> run_to t ~bounded:true (Int64.to_int h)

let advance t ~by = run_to t ~bounded:true (t.now + Int64.to_int by)

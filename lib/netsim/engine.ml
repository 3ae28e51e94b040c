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

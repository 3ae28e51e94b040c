type layer = {
  name : string;
  mutable calls : int;
  mutable self_ns : int;
  mutable self_words : int;
  mutable self_cycles : int;
}

let max_depth = 32

(* Open spans live in parallel arrays indexed by depth, so entering and
   leaving a span allocates nothing. The [child_*] slots accumulate the
   totals of the spans directly nested in the open span at that depth. *)
type t = {
  clock : unit -> int;
  words : unit -> int;
  cycles : unit -> int;
  mutable registered : layer list;  (* newest first *)
  mutable depth : int;
  start_ns : int array;
  start_words : int array;
  start_cycles : int array;
  child_ns : int array;
  child_words : int array;
  child_cycles : int array;
}

let monotonic_ns () = Int64.to_int (Monotonic_clock.now ())

(* Minor words as an int: the closure returns an immediate, so reading
   the counter allocates nothing. *)
let minor_words () = int_of_float (Gc.minor_words ())

let create ?(clock = monotonic_ns) ?(words = minor_words) ~cycles () =
  {
    clock;
    words;
    cycles;
    registered = [];
    depth = 0;
    start_ns = Array.make max_depth 0;
    start_words = Array.make max_depth 0;
    start_cycles = Array.make max_depth 0;
    child_ns = Array.make max_depth 0;
    child_words = Array.make max_depth 0;
    child_cycles = Array.make max_depth 0;
  }

let layer t name =
  match List.find_opt (fun l -> l.name = name) t.registered with
  | Some l -> l
  | None ->
      let l = { name; calls = 0; self_ns = 0; self_words = 0; self_cycles = 0 } in
      t.registered <- l :: t.registered;
      l

let layers t = List.rev t.registered

let enter t =
  let d = t.depth in
  if d >= max_depth then failwith "Span: nesting too deep";
  t.child_ns.(d) <- 0;
  t.child_words.(d) <- 0;
  t.child_cycles.(d) <- 0;
  t.depth <- d + 1;
  t.start_cycles.(d) <- t.cycles ();
  t.start_words.(d) <- t.words ();
  t.start_ns.(d) <- t.clock ()

let leave t l =
  let stop_ns = t.clock () in
  let stop_words = t.words () in
  let stop_cycles = t.cycles () in
  let d = t.depth - 1 in
  t.depth <- d;
  let ns = stop_ns - t.start_ns.(d) in
  let words = stop_words - t.start_words.(d) in
  let cycles = stop_cycles - t.start_cycles.(d) in
  l.calls <- l.calls + 1;
  l.self_ns <- l.self_ns + ns - t.child_ns.(d);
  l.self_words <- l.self_words + words - t.child_words.(d);
  l.self_cycles <- l.self_cycles + cycles - t.child_cycles.(d);
  if d > 0 then begin
    t.child_ns.(d - 1) <- t.child_ns.(d - 1) + ns;
    t.child_words.(d - 1) <- t.child_words.(d - 1) + words;
    t.child_cycles.(d - 1) <- t.child_cycles.(d - 1) + cycles
  end

let span t l f =
  enter t;
  match f () with
  | v ->
      leave t l;
      v
  | exception e ->
      leave t l;
      raise e

let reset t =
  List.iter
    (fun l ->
      l.calls <- 0;
      l.self_ns <- 0;
      l.self_words <- 0;
      l.self_cycles <- 0)
    t.registered

let total_self_ns t = List.fold_left (fun acc l -> acc + l.self_ns) 0 t.registered
let total_self_cycles t = List.fold_left (fun acc l -> acc + l.self_cycles) 0 t.registered

(* A global singleton recorder. The ring is an array of mutable slots
   written in place; [enabled] is the only word the disabled path
   touches. Not thread-safe — the whole simulator is single-domain. *)

type phase = B | E | I

type event = {
  ts : int64;
  seq : int;
  phase : phase;
  cat : string;
  name : string;
  arg : int;
}

let no_arg = min_int

type slot = {
  mutable s_ts : int64;
  mutable s_seq : int;
  mutable s_phase : phase;
  mutable s_cat : string;
  mutable s_name : string;
  mutable s_arg : int;
}

let enabled = ref false
let ring : slot array ref = ref [||]
let mask = ref 0
let next = ref 0 (* total events ever written = next sequence number *)

(* The digest: FNV-1a over each event's fields, one word per field
   (a string as its hash), dropped events included. Each step is a
   bijection of the running value, so two traces that differ in one
   event's word digest differently. *)
let running = ref 0
let fnv_prime = 0x100000001b3
let mix h v = (h lxor v) * fnv_prime

let logical = ref 0L

let default_clock () =
  logical := Int64.add !logical 1L;
  !logical

let clock = ref default_clock
let set_clock f = clock := f
let reset_clock () = clock := default_clock

let on () = !enabled

let enable ~capacity =
  let cap = Cio_util.Bitops.next_power_of_two (max 2 capacity) in
  ring :=
    Array.init cap (fun _ ->
        { s_ts = 0L; s_seq = 0; s_phase = I; s_cat = ""; s_name = ""; s_arg = no_arg });
  mask := cap - 1;
  next := 0;
  running := 0;
  logical := 0L;
  enabled := true

let disable () = enabled := false

let phase_code = function B -> 0 | E -> 1 | I -> 2

let record phase cat name arg =
  let s = !ring.((!next) land !mask) in
  let ts = !clock () in
  let h = mix !running (Int64.to_int ts) in
  let h = mix h (phase_code phase) in
  let h = mix h (Hashtbl.hash cat) in
  let h = mix h (Hashtbl.hash name) in
  running := mix h arg;
  s.s_ts <- ts;
  s.s_seq <- !next;
  s.s_phase <- phase;
  s.s_cat <- cat;
  s.s_name <- name;
  s.s_arg <- arg;
  incr next

let span_begin ~cat name = if !enabled then record B cat name no_arg
let span_end ~cat name = if !enabled then record E cat name no_arg

let instant ?(arg = no_arg) ~cat name = if !enabled then record I cat name arg

let with_span ~cat name f =
  if not !enabled then f ()
  else begin
    record B cat name no_arg;
    match f () with
    | v ->
        record E cat name no_arg;
        v
    | exception e ->
        record E cat name no_arg;
        raise e
  end

let recorded () = !next
let digest () = !running

let dropped () =
  let cap = Array.length !ring in
  if cap = 0 then 0 else max 0 (!next - cap)

let events () =
  let cap = Array.length !ring in
  if cap = 0 || !next = 0 then []
  else begin
    let n = min !next cap in
    let first = !next - n in
    List.init n (fun i ->
        let s = !ring.((first + i) land !mask) in
        {
          ts = s.s_ts;
          seq = s.s_seq;
          phase = s.s_phase;
          cat = s.s_cat;
          name = s.s_name;
          arg = s.s_arg;
        })
  end

(* --- export --- *)

(* Chrome's trace viewer lays events out per (pid, tid); mapping each
   category to its own tid puts L2, L5, TCP and fault activity on
   separate rows. *)
let to_chrome_json buf =
  let tids = Hashtbl.create 8 in
  let tid_of cat =
    match Hashtbl.find_opt tids cat with
    | Some t -> t
    | None ->
        let t = Hashtbl.length tids + 1 in
        Hashtbl.add tids cat t;
        t
  in
  Buffer.add_string buf "[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      let ph = match e.phase with B -> "B" | E -> "E" | I -> "i" in
      let ts_us = Int64.to_float e.ts /. 1000.0 in
      Buffer.add_string buf "{\"name\":\"";
      Cio_util.Json_lite.escape buf e.name;
      Buffer.add_string buf "\",\"cat\":\"";
      Cio_util.Json_lite.escape buf e.cat;
      Buffer.add_string buf (Printf.sprintf "\",\"ph\":\"%s\",\"ts\":%.3f" ph ts_us);
      Buffer.add_string buf (Printf.sprintf ",\"pid\":1,\"tid\":%d" (tid_of e.cat));
      if e.phase = I then Buffer.add_string buf ",\"s\":\"t\"";
      if e.arg <> no_arg then
        Buffer.add_string buf (Printf.sprintf ",\"args\":{\"v\":%d}" e.arg);
      Buffer.add_string buf "}")
    (events ());
  Buffer.add_string buf "]\n"

let pp_timeline ppf () =
  let evs = events () in
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i e ->
      if i > 0 then Format.fprintf ppf "@,";
      let ph = match e.phase with B -> "B" | E -> "E" | I -> "." in
      Format.fprintf ppf "%12Ldns %s [%s] %s" e.ts ph e.cat e.name;
      if e.arg <> no_arg then Format.fprintf ppf " (%d)" e.arg)
    evs;
  Format.fprintf ppf "@]"

(* Host observability metering — the "Obs." axis of Figure 5.

   §2.2 defines observability as the non-architectural side channel the
   I/O boundary exposes: which operations the host sees, their metadata,
   sizes and timing. A tap records every host-visible event at a given
   boundary; the score estimates how many bits each event leaks by the
   empirical entropy of its (kind, size-bucket, gap-bucket) triple, plus a
   kind-richness term. The absolute number is not meaningful (no
   simulation could make it so) — the *ordering* across boundaries is the
   reproduced result: syscall-level > raw-L2 > tunneled, with the dual
   boundary equal to raw-L2 by construction. *)

type event = { time : int64; kind : string; size : int }

type t = {
  name : string;
  mutable events : event list;  (* newest first *)
  mutable count : int;
}

let create name = { name; events = []; count = 0 }

let record t ~time ~kind ~size =
  t.events <- { time; kind; size } :: t.events;
  t.count <- t.count + 1

let count t = t.count
let events t = List.rev t.events

let clear t =
  t.events <- [];
  t.count <- 0

let kinds t =
  let tbl = Hashtbl.create 8 in
  List.iter (fun e -> Hashtbl.replace tbl e.kind ()) t.events;
  Hashtbl.length tbl

(* Bucketing: sizes by power of two, gaps by decade of microseconds. *)
let size_bucket size =
  if size <= 0 then 0 else Cio_util.Bitops.log2 (Cio_util.Bitops.next_power_of_two size)

let gap_bucket ns =
  if ns <= 0L then 0
  else begin
    let us = Int64.to_int (Int64.div ns 1000L) in
    let rec decade acc v = if v = 0 then acc else decade (acc + 1) (v / 10) in
    decade 0 us
  end

let entropy_of_counts counts total =
  if total = 0 then 0.0
  else
    Hashtbl.fold
      (fun _ c acc ->
        let p = float_of_int c /. float_of_int total in
        acc -. (p *. (log p /. log 2.0)))
      counts 0.0

let entropy_bits t =
  let ordered = events t in
  let counts = Hashtbl.create 32 in
  let total = ref 0 in
  let prev_time = ref None in
  List.iter
    (fun e ->
      let gap = match !prev_time with None -> 0L | Some p -> Int64.sub e.time p in
      prev_time := Some e.time;
      let key = (e.kind, size_bucket e.size, gap_bucket gap) in
      Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key));
      incr total)
    ordered;
  entropy_of_counts counts !total

(* Overall leakage score: per-event entropy plus a term for the richness
   of the operation vocabulary the host observes. *)
let score t = entropy_bits t +. log (float_of_int (max 1 (kinds t))) /. log 2.0

let pp_summary ppf t =
  Fmt.pf ppf "%s: %d events, %d kinds, %.2f bits/event, score %.2f" t.name t.count (kinds t)
    (entropy_bits t) (score t)

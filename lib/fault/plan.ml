(* Deterministic fault plans: what to inject, where, when, for how long.

   A plan is pure data derived from a single seed, so a campaign is
   replayable bit-for-bit: same seed, same injections, same schedule,
   same report. The generator covers every layer of the dual-boundary
   datapath — the host device model (modal stalls and header sabotage),
   the link (adversary bursts), the L5 record layer (targeted record
   tampering) and the quarantined I/O-stack compartment (crash). *)

open Cio_util

type kind =
  | Host_stall of int        (* host stops servicing the device for n polls *)
  | Host_ring_freeze of int  (* host drains TX but withholds RX for n polls *)
  | Host_silent_drop of int  (* host discards the next n inbound frames *)
  | Host_lie_len of int      (* header sabotage: lying length word *)
  | Host_bad_index of int    (* header sabotage: wild pool index *)
  | Host_garbage_state of int
  | Host_race_header of int  (* rewrite len on the guest's header fetch *)
  | Host_corrupt_payload
  | Host_replay_slot
  | Link_burst of int        (* hostile link adversary for n pump steps *)
  | Record_tamper            (* flip one bit inside the next TLS record *)
  | Stack_crash of int       (* crash the I/O domain; restart after n steps *)

type injection = { at_step : int; kind : kind }

type t = { seed : int64; injections : injection list }

let kind_name = function
  | Host_stall _ -> "host-stall"
  | Host_ring_freeze _ -> "ring-freeze"
  | Host_silent_drop _ -> "silent-drop"
  | Host_lie_len _ -> "lie-len"
  | Host_bad_index _ -> "bad-index"
  | Host_garbage_state _ -> "garbage-state"
  | Host_race_header _ -> "race-header"
  | Host_corrupt_payload -> "corrupt-payload"
  | Host_replay_slot -> "replay-slot"
  | Link_burst _ -> "link-burst"
  | Record_tamper -> "record-tamper"
  | Stack_crash _ -> "stack-crash"

let pp_kind ppf = function
  | Host_stall n -> Format.fprintf ppf "host-stall(%d polls)" n
  | Host_ring_freeze n -> Format.fprintf ppf "ring-freeze(%d polls)" n
  | Host_silent_drop n -> Format.fprintf ppf "silent-drop(%d frames)" n
  | Host_lie_len v -> Format.fprintf ppf "lie-len(%d)" v
  | Host_bad_index v -> Format.fprintf ppf "bad-index(%d)" v
  | Host_garbage_state v -> Format.fprintf ppf "garbage-state(%#x)" v
  | Host_race_header v -> Format.fprintf ppf "race-header(%d)" v
  | Host_corrupt_payload -> Format.fprintf ppf "corrupt-payload"
  | Host_replay_slot -> Format.fprintf ppf "replay-slot"
  | Link_burst n -> Format.fprintf ppf "link-burst(%d steps)" n
  | Record_tamper -> Format.fprintf ppf "record-tamper"
  | Stack_crash n -> Format.fprintf ppf "stack-crash(restart after %d steps)" n

(* One fault per layer class, parameters drawn from the plan RNG. *)
let coverage rng =
  [|
    Host_stall (3_000 + Rng.int rng 3_000);
    (if Rng.bool rng then Host_ring_freeze (3_000 + Rng.int rng 3_000)
     else Host_silent_drop (1 + Rng.int rng 3));
    (match Rng.int rng 6 with
    | 0 -> Host_lie_len (64 + Rng.int rng 1_000_000)
    | 1 -> Host_bad_index (Rng.int rng 100_000)
    | 2 -> Host_garbage_state (2 + Rng.int rng 0xFFFE)
    | 3 -> Host_race_header (64 + Rng.int rng 1_000_000)
    | 4 -> Host_corrupt_payload
    | _ -> Host_replay_slot);
    Link_burst (400 + Rng.int rng 1_200);
    Record_tamper;
    Stack_crash (200 + Rng.int rng 400);
  |]

let random_kind rng =
  let c = coverage rng in
  c.(Rng.int rng (Array.length c))

let first_at = 6_000
let spacing = 26_000

let generate ?(count = 6) ~seed () =
  let rng = Rng.create seed in
  let base = coverage rng in
  let kinds =
    Array.init count (fun i -> if i < Array.length base then base.(i) else random_kind rng)
  in
  (* Shuffle so different seeds exercise the layers in different orders
     (the schedule itself stays evenly spaced: each fault must resolve
     before the next lands for crisp attribution). *)
  Rng.shuffle rng kinds;
  let injections =
    Array.to_list
      (Array.mapi
         (fun i kind -> { at_step = first_at + (i * spacing) + Rng.int rng 2_000; kind })
         kinds)
  in
  { seed; injections }

let pp ppf t =
  Format.fprintf ppf "plan seed=%Ld: %d faults@." t.seed (List.length t.injections);
  List.iter
    (fun { at_step; kind } -> Format.fprintf ppf "    step %6d  %a@." at_step pp_kind kind)
    t.injections

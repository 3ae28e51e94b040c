(* Deterministic fault plans: what to inject, where, when, for how long.

   A plan is pure data derived from a single seed, so a campaign is
   replayable bit-for-bit: same seed, same injections, same schedule,
   same report. The generator covers every layer of the dual-boundary
   datapath — the host device model (modal stalls and header sabotage),
   the link (adversary bursts), the L5 record layer (targeted record
   tampering) and the quarantined I/O-stack compartment (crash). *)

open Cio_util

module Host_model = Cio_cionet.Host_model

type kind =
  | Host of Host_model.misbehavior  (* the cionet host model's own menu *)
  | Link_burst of int        (* hostile link adversary for n pump steps *)
  | Record_tamper            (* flip one bit inside the next TLS record *)
  | Stack_crash of int       (* crash the I/O domain; restart after n steps *)

type injection = { at_step : int; kind : kind }

type t = { seed : int64; injections : injection list }

let pp_kind ppf = function
  | Host m -> Host_model.pp_misbehavior ppf m
  | Link_burst n -> Format.fprintf ppf "link-burst(%d steps)" n
  | Record_tamper -> Format.fprintf ppf "record-tamper"
  | Stack_crash n -> Format.fprintf ppf "stack-crash(restart after %d steps)" n

(* One fault per layer class, parameters drawn from the plan RNG. *)
let coverage rng =
  [|
    Host (Host_model.Stall (3_000 + Rng.int rng 3_000));
    Host
      (if Rng.bool rng then Host_model.Ring_freeze (3_000 + Rng.int rng 3_000)
       else Host_model.Silent_drop (1 + Rng.int rng 3));
    Host
      (match Rng.int rng 6 with
      | 0 -> Host_model.Lie_len (64 + Rng.int rng 1_000_000)
      | 1 -> Host_model.Bad_index (Rng.int rng 100_000)
      | 2 -> Host_model.Garbage_state (2 + Rng.int rng 0xFFFE)
      | 3 -> Host_model.Race_header (64 + Rng.int rng 1_000_000)
      | 4 -> Host_model.Corrupt_payload
      | _ -> Host_model.Replay_slot);
    Link_burst (400 + Rng.int rng 1_200);
    Record_tamper;
    Stack_crash (200 + Rng.int rng 400);
  |]

let first_at = 6_000
let spacing = 26_000

let generate ~seed =
  let rng = Rng.create seed in
  let kinds = coverage rng in
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

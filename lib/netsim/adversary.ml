(* Network/host adversary as a tamper hook.

   Models the §2.1 threat model's network-level attacker: it can drop,
   duplicate, corrupt, delay, reorder and replay traffic. It cannot read
   TLS plaintext — cryptographic protection is the L5 boundary's job and
   is tested by aiming this adversary at it. All randomness is drawn from
   an explicit RNG so attack runs replay deterministically.

   Each frame it passes on goes to its receiver, who may reuse the
   buffer, so what it delivers twice or keeps is a copy: the duplicate,
   the replay memory and the replayed frame. *)

open Cio_util

type profile = {
  drop : float;
  duplicate : float;
  corrupt : float;
  reorder : float;   (* probability of holding a frame back one slot *)
  replay : float;    (* probability of re-injecting a previously seen frame *)
  extra_delay_ns : int64;  (* delay added to reordered frames *)
}

let benign = { drop = 0.0; duplicate = 0.0; corrupt = 0.0; reorder = 0.0; replay = 0.0; extra_delay_ns = 0L }

let hostile =
  { drop = 0.02; duplicate = 0.02; corrupt = 0.02; reorder = 0.05; replay = 0.02; extra_delay_ns = 50_000L }

type stats = {
  mutable seen : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable reordered : int;
  mutable replayed : int;
}

type t = {
  profile : profile;
  rng : Rng.t;
  stats : stats;
  mutable held : bytes option;     (* frame being reordered *)
  mutable memory : bytes list;     (* replay source, newest first; copies *)
}

let memory_limit = 32

let create ~rng profile =
  {
    profile;
    rng;
    stats = { seen = 0; dropped = 0; duplicated = 0; corrupted = 0; reordered = 0; replayed = 0 };
    held = None;
    memory = [];
  }

let stats t = t.stats

let remember t frame =
  t.memory <- Bytes.copy frame :: (if List.length t.memory >= memory_limit then List.filteri (fun i _ -> i < memory_limit - 1) t.memory else t.memory)

(* In place: the replay memory holds its own copy. *)
let corrupt_frame t frame =
  if Bytes.length frame > 0 then begin
    let i = Rng.int t.rng (Bytes.length frame) in
    Bytes.set frame i (Char.chr (Char.code (Bytes.get frame i) lxor (1 lsl Rng.int t.rng 8)))
  end;
  frame

let hit t p = p > 0.0 && Rng.float t.rng < p

(* The tamper hook. Frames released from the reorder slot carry the
   profile's extra delay so they genuinely arrive after the frame that
   overtook them. *)
let tamper t : Link.tamper =
 fun frame ->
  t.stats.seen <- t.stats.seen + 1;
  remember t frame;
  let out = ref [] in
  let emit ?(delay = 0L) f = out := { Link.extra_delay_ns = delay; frame = f } :: !out in
  (* Release a previously held frame alongside this one, late. *)
  (match t.held with
  | Some held ->
      t.held <- None;
      emit ~delay:t.profile.extra_delay_ns held
  | None -> ());
  if hit t t.profile.drop then t.stats.dropped <- t.stats.dropped + 1
  else if hit t t.profile.reorder then begin
    t.stats.reordered <- t.stats.reordered + 1;
    t.held <- Some frame
  end
  else begin
    let f = if hit t t.profile.corrupt then begin
        t.stats.corrupted <- t.stats.corrupted + 1;
        corrupt_frame t frame
      end
      else frame
    in
    emit f;
    if hit t t.profile.duplicate then begin
      t.stats.duplicated <- t.stats.duplicated + 1;
      emit ~delay:1000L (Bytes.copy f)
    end
  end;
  if hit t t.profile.replay then begin
    match t.memory with
    | [] -> ()
    | frames ->
        t.stats.replayed <- t.stats.replayed + 1;
        emit ~delay:2000L (Bytes.copy (Rng.pick t.rng (Array.of_list frames)))
  end;
  List.rev !out

let install t link ~src = Link.set_tamper link ~src (Some (tamper t))

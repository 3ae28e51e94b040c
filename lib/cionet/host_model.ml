(* Host-side cionet device model.

   Consumes the guest's TX ring and produces into the RX ring, strictly as
   the [Host] actor. Region faults (e.g. the guest has revoked a payload
   page mid-operation) are absorbed and counted — from the host's view a
   revoked page is simply unmapped.

   Misbehaviour knobs mirror the virtio device's so E4 can aim the same
   attack classes at the safe interface and show each one bouncing off a
   specific construction principle. *)

open Cio_mem
module Trace = Cio_telemetry.Trace
module Metrics = Cio_telemetry.Metrics
module Kind = Cio_telemetry.Kind

let m_tx_forwarded = Metrics.counter Metrics.default "host.tx_forwarded"
let m_rx_injected = Metrics.counter Metrics.default "host.rx_injected"
let m_faults = Metrics.counter Metrics.default "host.faults"
let m_rx_dropped = Metrics.counter Metrics.default "host.rx_dropped"
let m_injected = Metrics.counter Metrics.default "host.misbehaviors_injected"

type misbehavior =
  | Lie_len of int          (* publish this length on the next RX message *)
  | Bad_index of int        (* publish this pool/descriptor index *)
  | Garbage_state of int    (* write this state word instead of FULL *)
  | Race_header of int      (* rewrite len when the guest reads the header *)
  | Corrupt_payload
  | Replay_slot             (* republish the previous message once more *)
  | Stall of int            (* stop servicing the device for n polls *)
  | Silent_drop of int      (* discard the next n delivered RX frames *)
  | Ring_freeze of int      (* keep draining TX but withhold RX for n polls *)

type stats = {
  mutable tx_forwarded : int;
  mutable rx_injected : int;
  mutable faults : int;  (* host accesses refused by memory protection *)
  mutable rx_dropped : int;  (* frames silently discarded (Silent_drop) *)
}

type t = {
  mutable driver_tx : Ring.t;  (* we consume *)
  mutable driver_rx : Ring.t;  (* we produce *)
  transmit : bytes -> unit;
  pool : Bufpool.t;  (* staging buffers for pending RX frames *)
  pending_rx : bytes Queue.t;
  mutable misbehaviors : misbehavior list;
  (* Modal faults: unlike the one-shot header sabotage, these describe a
     host *condition* that persists for a counted number of polls/frames.
     A stalled or frozen host is indistinguishable from a dead one to the
     guest, which is exactly what the driver watchdog must handle. *)
  mutable stall_polls : int;
  mutable freeze_polls : int;
  mutable drop_frames : int;
  (* Service rate: frames serviced per poll, per direction. [None] means
     unbounded (the classic model). A finite quota makes the host a
     bottleneck without making it hostile — the saturation knob the
     overload experiments turn. *)
  mutable service_quota : int option;
  stats : stats;
}

let create ~(driver : Driver.t) ~transmit =
  {
    driver_tx = Driver.tx_ring driver;
    driver_rx = Driver.rx_ring driver;
    transmit;
    pool = Bufpool.create ();
    pending_rx = Queue.create ();
    misbehaviors = [];
    stall_polls = 0;
    freeze_polls = 0;
    drop_frames = 0;
    service_quota = None;
    stats = { tx_forwarded = 0; rx_injected = 0; faults = 0; rx_dropped = 0 };
  }

let set_service_quota t q = t.service_quota <- q

(* After a hot swap the old rings are revoked; the host re-attaches to the
   new instance (in deployment: the hypervisor maps the new device). *)
let reattach t ~(driver : Driver.t) =
  t.driver_tx <- Driver.tx_ring driver;
  t.driver_rx <- Driver.rx_ring driver

let stats t = t.stats

let misbehavior_name = function
  | Lie_len _ -> "lie-len"
  | Bad_index _ -> "bad-index"
  | Garbage_state _ -> "garbage-state"
  | Race_header _ -> "race-header"
  | Corrupt_payload -> "corrupt-payload"
  | Replay_slot -> "replay-slot"
  | Stall _ -> "stall"
  | Silent_drop _ -> "silent-drop"
  | Ring_freeze _ -> "ring-freeze"

let inject t m =
  Metrics.inc m_injected;
  if Trace.on () then
    Trace.instant ~cat:Kind.l2 ("host-" ^ misbehavior_name m);
  match m with
  | Stall n -> t.stall_polls <- t.stall_polls + max 0 n
  | Silent_drop n -> t.drop_frames <- t.drop_frames + max 0 n
  | Ring_freeze n -> t.freeze_polls <- t.freeze_polls + max 0 n
  | _ -> t.misbehaviors <- t.misbehaviors @ [ m ]

let take t pred =
  let rec go acc = function
    | [] -> None
    | m :: rest when pred m ->
        t.misbehaviors <- List.rev_append acc rest;
        Some m
    | m :: rest -> go (m :: acc) rest
  in
  go [] t.misbehaviors

let deliver_rx t frame =
  (* Zero-length frames are meaningless on the ring (and rejected by it);
     a real device would not generate them either. The staging copy comes
     from the host's pool so steady-state forwarding reuses buffers. *)
  if Bytes.length frame > 0 then begin
    let len = Bytes.length frame in
    let copy = Bufpool.acquire t.pool len in
    Bytes.blit frame 0 copy 0 len;
    Queue.add copy t.pending_rx
  end

(* Post-produce header corruption for the attack experiments: the honest
   produce path wrote a well-formed slot; the hostile host then scribbles
   over the shared words. All writes go through the Host actor, so memory
   protection and the region log both apply. *)
let sabotage t =
  (* Apply at most one header corruption per produced slot, so queued
     misbehaviours land on successive messages rather than piling onto
     the same slot. *)
  let ring = t.driver_rx in
  let region = Ring.region ring in
  let last_slot () = ((Ring.counters ring).Ring.produced - 1) land (Ring.slots ring - 1) in
  let applied = ref false in
  let try_take pred f =
    if not !applied then begin
      match take t pred with
      | Some m ->
          applied := true;
          f m
      | None -> ()
    end
  in
  try_take
    (function Lie_len _ -> true | _ -> false)
    (function
      | Lie_len v -> Region.write_u32 region Host ~off:(Ring.header_offset ring (last_slot ()) + 4) v
      | _ -> ());
  try_take
    (function Bad_index _ -> true | _ -> false)
    (function
      | Bad_index v -> Region.write_u32 region Host ~off:(Ring.header_offset ring (last_slot ()) + 8) v
      | _ -> ());
  try_take
    (function Garbage_state _ -> true | _ -> false)
    (function
      | Garbage_state v -> Region.write_u32 region Host ~off:(Ring.header_offset ring (last_slot ())) v
      | _ -> ());
  try_take
    (function Race_header _ -> true | _ -> false)
    (function
      | Race_header v ->
          (* Rewrite the len field the instant the guest touches the
             header. The guest's single 16-byte fetch has already captured
             the honest words by then, so by construction there is no
             second fetch for the lie to reach. *)
          let target = Ring.header_offset ring (last_slot ()) in
          Region.set_guest_read_hook region
            (Some
               (fun ~off ~len:_ ->
                 if off = target then begin
                   Region.set_guest_read_hook region None;
                   Region.write_u32 region Host ~off:(target + 4) v
                 end))
      | _ -> ())

(* Region faults are absorbed: from the host's view a revoked page is
   simply unmapped. *)
let note_fault t =
  t.stats.faults <- t.stats.faults + 1;
  Metrics.inc m_faults;
  if Trace.on () then Trace.instant ~cat:Kind.l2 "host-fault"

(* TX direction: drain the guest's ring in bursts and forward in FIFO
   order, up to [left] frames. A fault mid-burst (revoked pages, e.g. a
   hot swap racing the drain) loses the in-flight batch, exactly like a
   cable pull. *)
let rec drain_tx t left =
  let k = min 64 left in
  if k > 0 then
    match Ring.try_consume_burst ~max:k t.driver_tx with
    | [] -> ()
    | frames ->
        List.iter
          (fun frame ->
            t.stats.tx_forwarded <- t.stats.tx_forwarded + 1;
            Metrics.inc m_tx_forwarded;
            t.transmit frame)
          frames;
        drain_tx t (left - List.length frames)
    | exception Region.Fault _ -> note_fault t

let corrupt frame =
  let f = Bytes.copy frame in
  if Bytes.length f > 0 then Bytes.set f 0 (Char.chr (Char.code (Bytes.get f 0) lxor 0xFF));
  f

(* RX direction: push pending frames into the guest's RX ring, [batch]
   frames per ring crossing, up to [left] frames. With [batch = 1] every
   frame can take its detour: silent drop, payload corruption, header
   sabotage of the slot it landed in, replay. Produced staging buffers
   go back to the pool except the newest of each batch, which is left to
   the GC (recycling it as well measured a higher heap top on the 8 KiB
   echo), so a batch of one recycles nothing. A fault loses the frames
   in flight. *)
let rec fill_rx t ~batch left =
  if t.drop_frames > 0 && not (Queue.is_empty t.pending_rx) then begin
    (* Silent drop: the frame vanishes without any ring activity, as if
       the wire had eaten it. Nothing to detect at L2; TCP's timers own
       this failure. *)
    ignore (Queue.take t.pending_rx);
    t.drop_frames <- t.drop_frames - 1;
    t.stats.rx_dropped <- t.stats.rx_dropped + 1;
    Metrics.inc m_rx_dropped;
    if Trace.on () then Trace.instant ~cat:Kind.l2 "host-rx-drop";
    fill_rx t ~batch left
  end
  else begin
    let k = min (min batch left) (Queue.length t.pending_rx) in
    if k > 0 then begin
      let frames = Array.init k (fun _ -> Queue.take t.pending_rx) in
      let staged =
        match take t (function Corrupt_payload -> true | _ -> false) with
        | Some _ ->
            let s = Array.copy frames in
            s.(0) <- corrupt frames.(0);
            s
        | None -> frames
      in
      match Ring.try_produce_burst t.driver_rx staged with
      | n ->
          t.stats.rx_injected <- t.stats.rx_injected + n;
          Metrics.add m_rx_injected n;
          for i = 0 to n - 2 do
            Bufpool.recycle t.pool frames.(i)
          done;
          if n > 0 && t.misbehaviors <> [] then begin
            sabotage t;
            match take t (function Replay_slot -> true | _ -> false) with
            | Some _ ->
                (* Republish the same payload: a temporal attack. The safe
                   ring makes this indistinguishable from the host licitly
                   delivering the same bytes twice — exactly the paper's
                   point that L2 cannot and need not stop replays; the L5
                   record layer must (and does, see cio_tls tests). *)
                ignore (Ring.try_produce t.driver_rx staged.(n - 1))
            | None -> ()
          end;
          if n < k then begin
            (* Ring full: put the unproduced tail back at the head. *)
            let leftovers = Queue.create () in
            for i = n to k - 1 do
              Queue.add frames.(i) leftovers
            done;
            Queue.transfer t.pending_rx leftovers;
            Queue.transfer leftovers t.pending_rx
          end
          else fill_rx t ~batch (left - n)
      | exception Region.Fault _ -> note_fault t
    end
  end

let poll t =
  if t.stall_polls > 0 then
    (* A stalled host services nothing: TX backs up, RX starves. The
       guest-side watchdog is the only way out — the stateless interface
       means its reset loses nothing the transport cannot replay. *)
    t.stall_polls <- t.stall_polls - 1
  else begin
    let quota = match t.service_quota with Some q -> max 0 q | None -> max_int in
    drain_tx t quota;
    if t.freeze_polls > 0 then
      (* Ring freeze: the host still drains TX (the guest sees forward
         progress on sends) but the RX ring goes quiet — a one-directional
         stall that only an RX-aware watchdog deadline catches. *)
      t.freeze_polls <- t.freeze_polls - 1
    else begin
      (* The batch size is fixed once per poll: whole batches for an
         honest host over a fully shared region, where no frame can take
         a detour or fault slot by slot; otherwise one frame at a time. *)
      let region = Ring.region t.driver_rx in
      let batch =
        if
          t.misbehaviors = [] && t.drop_frames = 0
          && Region.range_shared region 0 (Region.size region)
        then 64
        else 1
      in
      fill_rx t ~batch quota
    end
  end

let pending_rx_count t = Queue.length t.pending_rx

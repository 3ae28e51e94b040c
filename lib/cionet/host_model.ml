(* Host-side cionet device model.

   Consumes the guest's TX ring and produces into the RX ring, strictly as
   the [Host] actor. Region faults (e.g. the guest has revoked a payload
   page mid-operation) are absorbed and counted — from the host's view a
   revoked page is simply unmapped.

   Misbehaviour knobs mirror the virtio device's so E4 can aim the same
   attack classes at the safe interface and show each one bouncing off a
   specific construction principle. *)

open Cio_util
open Cio_mem
module Trace = Cio_telemetry.Trace
module Metrics = Cio_telemetry.Metrics
module Kind = Cio_telemetry.Kind

let m_tx_forwarded = Metrics.counter Metrics.default "host.tx_forwarded"
let m_rx_injected = Metrics.counter Metrics.default "host.rx_injected"
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
  mutable faults : int;  (* host accesses refused by memory protection *)
  mutable rx_dropped : int;  (* frames silently discarded (Silent_drop) *)
}

type t = {
  (* The device the host serves: always the driver's current instance,
     as a hypervisor serves whatever the guest has just mapped. We
     consume its TX ring and produce into its RX ring. *)
  driver : Driver.t;
  transmit : bytes -> unit;
  (* Frame buffers the host owns: what [drain_tx] consumes into and
     gives to [transmit], and where produced RX frames go back. *)
  pool : Bufpool.t;
  batch : bytes array;  (* [drain_tx]'s burst, forwarded once the whole burst is in *)
  pending_rx : bytes Fifo.t;
  staged : bytes array;  (* [fill_rx]'s burst: the front of [pending_rx], as produced *)
  replay : bytes array;  (* one slot: the frame a [Replay_slot] produces again *)
  one_shot : misbehavior Host_fault.queue;  (* header/payload faults *)
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

let tx_burst = 64
let rx_burst = 64

let create ~(driver : Driver.t) ~transmit =
  {
    driver;
    transmit;
    pool = Bufpool.create ();
    batch = Array.make tx_burst Bytes.empty;
    pending_rx = Fifo.create Bytes.empty;
    staged = Array.make rx_burst Bytes.empty;
    replay = [| Bytes.empty |];
    one_shot = Host_fault.queue ();
    stall_polls = 0;
    freeze_polls = 0;
    drop_frames = 0;
    service_quota = None;
    stats = { faults = 0; rx_dropped = 0 };
  }

let set_service_quota t q = t.service_quota <- q

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

let pp_misbehavior ppf m =
  let name = misbehavior_name m in
  match m with
  | Stall n -> Format.fprintf ppf "host-stall(%d polls)" n
  | Ring_freeze n -> Format.fprintf ppf "%s(%d polls)" name n
  | Silent_drop n -> Format.fprintf ppf "%s(%d frames)" name n
  | Garbage_state v -> Format.fprintf ppf "%s(%#x)" name v
  | Lie_len v | Bad_index v | Race_header v -> Format.fprintf ppf "%s(%d)" name v
  | Corrupt_payload | Replay_slot -> Format.pp_print_string ppf name

let inject t m =
  Metrics.inc m_injected;
  if Trace.on () then
    Trace.instant ~cat:Kind.l2 ("host-" ^ misbehavior_name m);
  match m with
  | Stall n -> t.stall_polls <- t.stall_polls + max 0 n
  | Silent_drop n -> t.drop_frames <- t.drop_frames + max 0 n
  | Ring_freeze n -> t.freeze_polls <- t.freeze_polls + max 0 n
  | _ -> Host_fault.push t.one_shot m

(* The delivered frame is the host's now: it is staged as it is, and
   its buffer joins the host's pool once produced. Zero-length frames
   are meaningless on the ring (and rejected by it); a real device would
   not generate them either. *)
let deliver_rx t frame = if Bytes.length frame > 0 then Fifo.push t.pending_rx frame

(* Post-produce header corruption for the attack experiments: the honest
   produce path wrote a well-formed slot; the hostile host then scribbles
   over one of its shared header words. At most one header fault lands
   per produced slot, so queued faults hit successive messages in the
   order they were injected. All writes go through the Host actor, so
   memory protection applies. *)
let sabotage t =
  let ring = Driver.rx_ring t.driver in
  let region = Ring.region ring in
  let slot = ((Ring.counters ring).Ring.produced - 1) land (Ring.slots ring - 1) in
  let header = Ring.header_offset ring slot in
  match
    Host_fault.take t.one_shot (function
      | Garbage_state v -> Some (`Word (0, v))
      | Lie_len v -> Some (`Word (4, v))
      | Bad_index v -> Some (`Word (8, v))
      | Race_header v -> Some (`Race v)
      | _ -> None)
  with
  | Some (`Word (field, v)) -> Region.write_u32 region Host ~off:(header + field) v
  | Some (`Race v) ->
      (* Rewrite the len field the instant the guest touches the header.
         The guest's single 16-byte fetch has already captured the honest
         words by then, so by construction there is no second fetch for
         the lie to reach. *)
      Host_fault.race_word region ~watch:header ~off:(header + 4) v
  | None -> ()

(* Region faults are absorbed: from the host's view a revoked page is
   simply unmapped. *)
let note_fault t =
  t.stats.faults <- t.stats.faults + 1;
  if Trace.on () then Trace.instant ~cat:Kind.l2 "host-fault"

(* TX direction: drain the guest's ring in bursts into the host's pool
   and forward in FIFO order, up to [left] frames; [transmit] owns each
   frame it is given. A fault mid-burst (pages the guest has revoked)
   loses the in-flight batch, exactly like a cable pull. *)
let rec drain_tx t left =
  let k = Int.min tx_burst left in
  if k > 0 then
    match Ring.try_consume_burst_into ~pool:t.pool (Driver.tx_ring t.driver) t.batch ~max:k with
    | 0 -> ()
    | n ->
        for i = 0 to n - 1 do
          let frame = t.batch.(i) in
          t.batch.(i) <- Bytes.empty;
          Metrics.inc m_tx_forwarded;
          t.transmit frame
        done;
        drain_tx t (left - n)
    | exception Region.Fault _ -> note_fault t

let corrupt frame =
  let f = Bytes.copy frame in
  if Bytes.length f > 0 then Bytes.set f 0 (Char.chr (Char.code (Bytes.get f 0) lxor 0xFF));
  f

(* RX direction: push pending frames into the guest's RX ring, [batch]
   frames per ring crossing, up to [left] frames. With [batch = 1] every
   frame can take its detour: silent drop, payload corruption, header
   sabotage of the slot it landed in, replay. A burst is staged from the
   front of the queue and leaves it only once produced, so a full ring
   leaves the tail queued in order. Every produced buffer goes back to
   the pool once any replay has re-produced it. A fault loses the frames
   in flight. *)
let rec fill_rx t ~batch left =
  let q = t.pending_rx in
  if t.drop_frames > 0 && not (Fifo.is_empty q) then begin
    (* Silent drop: the frame vanishes without any ring activity, as if
       the wire had eaten it. Nothing to detect at L2; TCP's timers own
       this failure. *)
    Bufpool.recycle t.pool (Fifo.pop q);
    t.drop_frames <- t.drop_frames - 1;
    t.stats.rx_dropped <- t.stats.rx_dropped + 1;
    if Trace.on () then Trace.instant ~cat:Kind.l2 "host-rx-drop";
    fill_rx t ~batch left
  end
  else begin
    let k = Int.min (Int.min batch left) (Fifo.length q) in
    if k > 0 then begin
      for i = 0 to k - 1 do
        t.staged.(i) <- Fifo.get q i
      done;
      (match Host_fault.take t.one_shot (function Corrupt_payload -> Some () | _ -> None) with
      | Some _ -> t.staged.(0) <- corrupt t.staged.(0)
      | None -> ());
      let rx = Driver.rx_ring t.driver in
      match Ring.try_produce_burst rx t.staged ~len:k with
      | n ->
          Metrics.add m_rx_injected n;
          if n > 0 && not (Host_fault.is_empty t.one_shot) then begin
            sabotage t;
            match Host_fault.take t.one_shot (function Replay_slot -> Some () | _ -> None) with
            | Some _ ->
                (* Republish the same payload: a temporal attack. The safe
                   ring makes this indistinguishable from the host licitly
                   delivering the same bytes twice — exactly the paper's
                   point that L2 cannot and need not stop replays; the L5
                   record layer must (and does, see cio_tls tests). *)
                t.replay.(0) <- t.staged.(n - 1);
                ignore (Ring.try_produce_burst rx t.replay ~len:1)
            | None -> ()
          end;
          for _ = 1 to n do
            Bufpool.recycle t.pool (Fifo.pop q)
          done;
          if n = k then fill_rx t ~batch (left - n)
      | exception Region.Fault _ ->
          for _ = 1 to k do
            ignore (Fifo.pop q)
          done;
          note_fault t
    end
  end

let poll t =
  if t.stall_polls > 0 then
    (* A stalled host services nothing: TX backs up, RX starves. The
       guest-side watchdog is the only way out — the stateless interface
       means its reset loses nothing the transport cannot replay. *)
    t.stall_polls <- t.stall_polls - 1
  else begin
    let quota = match t.service_quota with Some q -> Int.max 0 q | None -> max_int in
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
      let region = Ring.region (Driver.rx_ring t.driver) in
      let batch =
        if
          Host_fault.is_empty t.one_shot && t.drop_frames = 0
          && Region.range_shared region 0 (Region.size region)
        then rx_burst
        else 1
      in
      fill_rx t ~batch quota
    end
  end

let pending_rx_count t = Fifo.length t.pending_rx

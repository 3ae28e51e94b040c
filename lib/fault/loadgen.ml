(* Offered-load generator for the overload experiments (E22).

   The topology is the fault campaign's — a dual-boundary echo session
   over the discrete-event engine — but the host is merely *slow*, not
   hostile: a finite per-poll service quota makes it the bottleneck, and
   the open-loop generator offers messages at a configured rate whether
   or not the datapath is keeping up. That is the textbook overload
   setup: an open-loop arrival process over a finite-service system.

   With the overload plane OFF every offered message is pushed into the
   channel immediately; the sealed outbox and the stack's TX queue absorb
   the excess and latency grows without bound — goodput (replies within
   the deadline) collapses even though raw throughput stays at the
   service rate. With the plane ON, the admission controller sheds the
   excess at the app boundary before any sealing work is spent, blown
   deadlines are shed at the next crossing instead of being carried
   through, and goodput holds near the saturation level.

   Determinism: same seed + same config, byte-identical report. *)

open Cio_core
open Cio_cionet

type config = {
  quantum_ns : int64;        (* engine advance per pump step *)
  steps : int;               (* load steps (after channel establishment) *)
  msg_size : int;            (* app payload bytes (>= 24) *)
  offered_per_mille : int;   (* offered messages per 1000 steps *)
  deadline_steps : int;      (* a reply later than this is not goodput *)
  host_quota : int;          (* Host_model frames serviced per poll *)
  gen_queue_limit : int;     (* plane-on only: arrivals beyond this shed
                                at the source instead of aging in queue *)
  overload : Cio_overload.Plane.config option;
}

let default_config =
  {
    quantum_ns = 10_000L;
    steps = 2_000;
    (* Big enough that one message is one TCP segment: the host's
       per-frame quota then really is a per-message service rate. *)
    msg_size = 1_024;
    offered_per_mille = 500;
    deadline_steps = 64;
    host_quota = 1;
    gen_queue_limit = 16;
    overload = None;
  }

type report = {
  offered : int;    (* messages the generator produced *)
  sent : int;       (* accepted into the channel *)
  shed : int;       (* rejected by the plane (admission/deadline/breaker) *)
  echoes : int;     (* full round trips completed *)
  timely : int;     (* goodput: echoes within deadline_steps *)
  p50_rtt_steps : int;   (* over completed echoes; 0 if none *)
  p99_rtt_steps : int;
  queued : int;          (* generator-side messages still waiting at the end *)
  backlog_bytes : int;   (* sealed bytes stuck in the channel outbox *)
  tx_backlog : int;      (* frames stuck in the stack's TX queue *)
  breaker_transitions : int;
}

(* Payload: "<seq:%06d> <birth:%08d> ...padding". The reply carries its
   own birth step, so RTT needs no side table. *)
let payload ~msg_size ~seq ~birth =
  let hdr = Printf.sprintf "%06d %08d " seq birth in
  let b = Bytes.make (max msg_size (String.length hdr)) '.' in
  Bytes.blit_string hdr 0 b 0 (String.length hdr);
  b

let parse_birth m =
  if Bytes.length m >= 16 then int_of_string_opt (Bytes.sub_string m 7 8) else None

let run ?(config = default_config) ~seed () =
  let d =
    Testbed.attach_dual ?overload:config.overload
      (Testbed.create ~name:"overload-loadgen" ~psk_id:"overload-loadgen" ~seed ())
  in
  let unit_ = d.Testbed.unit_ and host = d.Testbed.host in
  let plane = Dual.overload unit_ in
  let ch = Testbed.connect d in
  let pump () = Testbed.pump d ~by:config.quantum_ns in
  (* Handshake warm-up, outside the measured window (unmetered host). *)
  Host_model.set_service_quota host None;
  let warm = ref 0 in
  while (not (Channel.is_established ch)) && !warm < 10_000 do
    incr warm;
    pump ()
  done;
  Host_model.set_service_quota host (Some config.host_quota);
  (* The measured open-loop window. *)
  let offered = ref 0 in
  let sent = ref 0 in
  let shed = ref 0 in
  let echoes = ref 0 in
  let timely = ref 0 in
  let rtts = ref [] in
  (* Generator queue: offered messages waiting for admission. Each entry
     remembers its birth step and, with the plane on, the deadline the
     plane stamped at generation time. *)
  let genq : (int * Cio_overload.Deadline.t) Queue.t = Queue.create () in
  let acc = ref 0 in
  for step = 1 to config.steps do
    (* Open-loop arrivals. With the plane on, the generator queue is
       bounded: beyond the limit an arrival is shed at the source (the
       backpressure signal has propagated all the way to the producer),
       which keeps queue wait well under the deadline for the messages
       that are admitted. Plane off: everything queues, everything goes. *)
    acc := !acc + config.offered_per_mille;
    while !acc >= 1000 do
      acc := !acc - 1000;
      incr offered;
      match plane with
      | Some p ->
          if Queue.length genq >= config.gen_queue_limit then begin
            incr shed;
            Cio_overload.Pressure.note_queue_full ()
          end
          else Queue.add (step, Cio_overload.Plane.deadline p) genq
      | None -> Queue.add (step, Cio_overload.Deadline.none) genq
    done;
    (* Drain towards the channel. Plane off: everything goes in now
       (that *is* the failure mode under study). Plane on: the admission
       decision gates each message; a blown deadline sheds it at this
       crossing, a dry token bucket or open breaker leaves the rest
       queued for a later step. *)
    let continue_ = ref true in
    while !continue_ && not (Queue.is_empty genq) do
      let birth, deadline = Queue.peek genq in
      match
        Channel.send_admitted ~klass:Cio_overload.Admission.Interactive ~deadline ch
          (payload ~msg_size:config.msg_size ~seq:!sent ~birth)
      with
      | Channel.Sent ->
          ignore (Queue.pop genq);
          incr sent
      | Channel.Shed Cio_overload.Pressure.Deadline ->
          ignore (Queue.pop genq);
          incr shed
      | Channel.Shed _ ->
          (* Not admitted this quantum; the message waits (and ages
             toward its deadline). *)
          continue_ := false
      | Channel.Send_error _ -> continue_ := false
    done;
    pump ();
    let rec harvest () =
      match Channel.recv ch with
      | None -> ()
      | Some m ->
          incr echoes;
          (match parse_birth m with
          | Some birth ->
              let rtt = step - birth in
              rtts := rtt :: !rtts;
              if rtt <= config.deadline_steps then incr timely
          | None -> ());
          harvest ()
    in
    harvest ()
  done;
  let sorted = List.sort compare !rtts in
  let n = List.length sorted in
  let pct p = if n = 0 then 0 else List.nth sorted (min (n - 1) (p * n / 100)) in
  {
    offered = !offered;
    sent = !sent;
    shed = !shed;
    echoes = !echoes;
    timely = !timely;
    p50_rtt_steps = pct 50;
    p99_rtt_steps = pct 99;
    queued = Queue.length genq;
    backlog_bytes = Channel.outbox_bytes ch;
    tx_backlog = Cio_tcpip.Stack.tx_backlog (Dual.stack unit_);
    breaker_transitions =
      (match plane with
      | Some p -> Cio_overload.Breaker.transitions (Cio_overload.Plane.breaker p)
      | None -> 0);
  }

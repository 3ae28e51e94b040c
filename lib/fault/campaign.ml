(* The campaign engine: run a full dual-boundary echo session while a
   seeded fault plan is injected through the discrete-event engine, and
   report what was detected, how the datapath healed, and whether a
   single plaintext byte ever reached the host.

   Self-healing under test, layer by layer:

   - host stall / ring freeze   -> driver watchdog deadline, exponential
                                   backoff, generation-bumping ring reset
                                   (statelessness: nothing to re-negotiate);
   - silent frame drop          -> TCP retransmission, no L2 involvement;
   - ring header sabotage       -> confined by construction at L2
                                   (masked indices, clamped lengths,
                                   skipped malformed slots);
   - link adversary burst       -> TCP integrity + L5 AEAD;
   - TLS record tampering       -> fail-closed session death, then a
                                   fresh TCP connection + PSK handshake
                                   (zero renegotiation by design);
   - I/O-stack compartment crash-> crash containment behind L5, domain
                                   restart, reconnect; the app's secrets
                                   never existed below the TLS boundary.

   Determinism: every random choice flows from the plan seed, injections
   are Engine-scheduled at absolute simulated times, and the report
   contains only counted quantities — same seed, byte-identical report. *)

open Cio_util
open Cio_core
open Cio_netsim
open Cio_cionet
module Trace = Cio_telemetry.Trace
module Kind = Cio_telemetry.Kind
module Region = Cio_mem.Region

(* One span per fault, from injection to the first post-injection round
   trip: the span's extent *is* the recovery time in virtual time. *)
let fault_span_name kind = Format.asprintf "%a" Plan.pp_kind kind

type config = {
  watchdog_budget : int;   (* watchdog deadline in poll ticks *)
  target_echoes : int;     (* minimum successful echoes overall *)
  max_steps : int;
  overload : Cio_overload.Plane.config option;
      (* stand up the overload-control plane on the unit (admission at
         the channel, bounded TX queue, shared retry budget, breaker on
         the watchdog); None = classic unguarded campaign *)
}

let default_config =
  { watchdog_budget = 1_500; target_echoes = 24; max_steps = 400_000; overload = None }

let quantum_ns = 10_000L  (* engine advance per pump step *)
let payload_pad = 256     (* canary payloads are padded up to this size *)

type fault_report = {
  kind : Plan.kind;
  injected_at : int;
  classification : string;
  detected : bool;  (* false = tolerated silently (by construction/transport) *)
  recovered_in_steps : int option;
  recovered_in_cycles : int option;
}

type t = {
  seed : int64;
  steps : int;
  sent : int;
  echoes : int;
  lost : int;     (* in-flight messages abandoned by fail-closed recovery *)
  integrity_failures : int;
  leaks : int;
  confined : int; (* L2 constructions that fired: clamps + masks + skips *)
  sanitizer_double_fetches : int;
      (* overlapping same-epoch guest fetches seen by the runtime
         sanitizer, expected to stay 0 over the safe cionet datapath
         (single fetch by construction) *)
  sanitizer_mutated_fetches : int;
  stalls_detected : int;
  resets : int;
  reconnects : int;
  crashes : int;
  restarts : int;
  (* Overload plane accounting; all zero / "closed" when the plane is
     disabled, so classic reports stay byte-identical. *)
  admitted : int;
  shed : int;
  breaker_transitions : int;
  breaker_state : string;
  faults : fault_report list;
  survived : bool;
}

let all_recovered t =
  t.faults <> []
  && List.for_all (fun f -> f.recovered_in_steps <> None) t.faults

(* Flip one bit inside a TCP payload (a TLS record in flight), fixing the
   checksums up so the tamper survives L2–L4 and must be caught — and is,
   fail-closed — by the L5 AEAD. *)
let tamper_tls_record frame =
  let open Cio_frame in
  let eth = Ethernet.create () and ip = Ipv4.create () and seg = Tcp_wire.create () in
  match Ethernet.decode eth frame ~off:0 ~len:(Bytes.length frame) with
  | Error _ -> None
  | Ok () -> (
      match eth.Ethernet.ethertype with
      | Ethernet.Ipv4 -> (
          match Ipv4.decode ip frame ~off:eth.Ethernet.payload_off ~len:eth.Ethernet.payload_len with
          | Ok () when ip.Ipv4.protocol = Ipv4.Tcp -> (
              let src_ip = ip.Ipv4.src and dst_ip = ip.Ipv4.dst in
              match
                Tcp_wire.decode seg ~src_ip ~dst_ip frame ~off:ip.Ipv4.payload_off
                  ~len:ip.Ipv4.payload_len
              with
              | Ok () when seg.Tcp_wire.payload_len > 5 ->
                  (* A fresh frame: the caller's is left untouched. *)
                  let tcp_off = Ethernet.header_len + Ipv4.header_len in
                  let pay_off = tcp_off + Tcp_wire.header_len seg in
                  let len = seg.Tcp_wire.payload_len in
                  let ip_len = pay_off - Ethernet.header_len + len in
                  let out = Bytes.create (Ethernet.frame_len ~payload_len:ip_len) in
                  Bytes.blit frame seg.Tcp_wire.payload_off out pay_off len;
                  let i = pay_off + len - 1 in
                  Bytes.set out i (Char.chr (Char.code (Bytes.get out i) lxor 0x01));
                  Tcp_wire.encode out ~off:tcp_off ~src_ip ~dst_ip seg;
                  Ipv4.encode out ~off:Ethernet.header_len ~src:src_ip ~dst:dst_ip
                    ~protocol:ip.Ipv4.protocol ~ttl:ip.Ipv4.ttl ~payload_len:(pay_off - tcp_off + len);
                  Ethernet.encode out ~off:0 ~dst:eth.Ethernet.dst ~src:eth.Ethernet.src
                    ~ethertype:eth.Ethernet.ethertype ~payload_len:ip_len;
                  Some out
              | _ -> None)
          | _ -> None)
      | _ -> None)

type snap = {
  s_stalls : int;
  s_reconnects : int;
  s_confined : int;
  s_crashes : int;
  s_cycles : int;
}

type frec = {
  f_kind : Plan.kind;
  f_at : int;
  mutable f_applied : bool;
  mutable f_sent0 : int;  (* send counter when injected *)
  mutable f_snap : snap option;
  mutable f_resolved : (int * snap) option;
}

let classify ~d_stalls ~d_reconnects ~d_confined ~d_crashes =
  if d_crashes > 0 then ("crash contained; I/O domain restarted behind L5", true)
  else if d_reconnects > 0 then ("fail-closed at L5; fresh TCP + PSK session", true)
  else if d_stalls > 0 then
    ("stall detected; watchdog generation-bump reset", true)
  else if d_confined > 0 then ("confined at L2 by construction", true)
  else ("tolerated silently (transport absorbed it)", false)

let run ?(config = default_config) (plan : Plan.t) =
  let bed =
    Testbed.create ~name:"fault-campaign" ~psk_id:"fault-campaign" ~seed:plan.Plan.seed ()
  in
  if Trace.on () then Trace.span_begin ~cat:Kind.fault "campaign";
  let d = Testbed.attach_dual ?overload:config.overload bed in
  let engine = bed.Testbed.engine and link = bed.Testbed.link and rng = bed.Testbed.rng in
  let unit_ = d.Testbed.unit_ and host = d.Testbed.host in
  let plane = Dual.overload unit_ in
  let wd =
    Watchdog.create ~poll_budget:config.watchdog_budget
      ?breaker:(Option.map Cio_overload.Plane.breaker plane)
      ?retry_budget:(Option.map Cio_overload.Plane.retry_budget plane)
      (Dual.driver unit_)
  in
  (* Leak detection: every frame entering the link — both directions, the
     complete host-visible surface — is scanned for the canary that every
     app payload embeds. This tap replaces the testbed's metadata tap. *)
  let leaks = ref 0 in
  Link.set_transit_tap link
    (Some (fun ~time:_ ~src:_ frame -> if Cio_attack.Attack.contains_canary frame then incr leaks));
  (* L2 confinement accounting, accumulated across ring generations. *)
  let conf_of () =
    let d = Dual.driver unit_ in
    let c r =
      let k = Ring.counters r in
      k.Ring.len_clamped + k.Ring.index_masked + k.Ring.state_skipped
    in
    c (Driver.tx_ring d) + c (Driver.rx_ring d)
  in
  let confined_acc = ref 0 in
  let last_conf = ref 0 in
  let last_gen = ref (Driver.generation (Dual.driver unit_)) in
  let sample_confinement () =
    let g = Driver.generation (Dual.driver unit_) in
    let c = conf_of () in
    if g = !last_gen then confined_acc := !confined_acc + (c - !last_conf)
    else confined_acc := !confined_acc + c;
    last_conf := c;
    last_gen := g
  in
  (* Runtime double-fetch sanitizer: armed on the driver's region, one
     epoch per pump step (a poll is one logical parse). A compartment
     restart replaces driver and region, so bank the dead region's totals
     and re-arm the new one. *)
  let san_double = ref 0 in
  let san_mutated = ref 0 in
  let san_region = ref None in
  let bank_sanitizer r =
    let s = Region.sanitizer_stats r in
    san_double := !san_double + s.Region.double_fetches;
    san_mutated := !san_mutated + s.Region.mutated_fetches
  in
  let sample_sanitizer () =
    let r = Driver.region (Dual.driver unit_) in
    (match !san_region with
    | Some r0 when r0 == r -> ()
    | prev ->
        (match prev with Some r0 -> bank_sanitizer r0 | None -> ());
        Region.sanitizer_enable r;
        san_region := Some r);
    Region.sanitizer_epoch r
  in
  let comp () = Cio_compartment.Compartment.counters (Dual.world unit_) in
  let snap () =
    {
      s_stalls = Watchdog.stalls_detected wd;
      s_reconnects = Dual.reconnects unit_;
      s_confined = !confined_acc;
      s_crashes = (comp ()).Cio_compartment.Compartment.crashes;
      s_cycles = Cost.total (Dual.meter unit_);
    }
  in
  (* Campaign state. *)
  let steps = ref 0 in
  let sent = ref 0 in
  let echoes = ref 0 in
  let lost = ref 0 in
  let integrity = ref 0 in
  let outstanding : bytes Queue.t = Queue.create () in
  let ch = ref (Testbed.connect d) in
  let drop_outstanding () =
    lost := !lost + Queue.length outstanding;
    Queue.clear outstanding
  in
  (* Link adversary for burst windows. *)
  let adversary = Adversary.create ~rng:(Rng.split rng) Adversary.hostile in
  let burst_until = ref (-1) in
  (* One-shot TLS record tamper, armed by injection, fired on the next
     payload-bearing frame toward the guest. *)
  let tamper_armed = ref false in
  Link.set_tamper link ~src:Link.B
    (Some
       (fun frame ->
         if !tamper_armed then
           match tamper_tls_record frame with
           | Some frame' ->
               tamper_armed := false;
               [ { Link.extra_delay_ns = 0L; frame = frame' } ]
           | None -> [ { Link.extra_delay_ns = 0L; frame } ]
         else [ { Link.extra_delay_ns = 0L; frame } ]));
  (* Schedule the plan through the event engine. *)
  let records =
    List.map
      (fun { Plan.at_step; kind } ->
        { f_kind = kind; f_at = at_step; f_applied = false; f_sent0 = 0; f_snap = None;
          f_resolved = None })
      plan.Plan.injections
  in
  let inject r =
    r.f_applied <- true;
    r.f_sent0 <- !sent;
    r.f_snap <- Some (snap ());
    if Trace.on () then Trace.span_begin ~cat:Kind.fault (fault_span_name r.f_kind);
    match r.f_kind with
    | Plan.Host m -> Host_model.inject host m
    | Plan.Link_burst n ->
        Link.set_tamper link ~src:Link.A (Some (Adversary.tamper adversary));
        burst_until := r.f_at + n
    | Plan.Record_tamper -> tamper_armed := true
    | Plan.Stack_crash n ->
        Dual.crash_io unit_;
        Engine.schedule engine
          ~after:(Int64.mul (Int64.of_int n) quantum_ns)
          (fun () ->
            Dual.restart_io unit_;
            drop_outstanding ();
            ch := Dual.reconnect unit_ !ch)
  in
  List.iter
    (fun r ->
      Engine.schedule_at engine
        ~time:(Int64.mul (Int64.of_int r.f_at) quantum_ns)
        (fun () -> inject r))
    records;
  (* The pump. *)
  let payload seq =
    let base = Printf.sprintf "%s #%06d" Cio_attack.Attack.canary seq in
    let b = Bytes.make (max payload_pad (String.length base)) '.' in
    Bytes.blit_string base 0 b 0 (String.length base);
    b
  in
  let done_ () =
    List.for_all (fun r -> r.f_applied && r.f_resolved <> None) records
    && !echoes >= config.target_echoes
  in
  while (not (done_ ())) && !steps < config.max_steps do
    incr steps;
    sample_sanitizer ();
    Testbed.pump d ~by:quantum_ns;
    sample_confinement ();
    if Dual.io_alive unit_ then begin
      Watchdog.tick wd ~expecting_rx:(not (Queue.is_empty outstanding));
      (* Fail-closed recovery: a poisoned session can only be replaced. *)
      match Channel.error !ch with
      | Some _ ->
          drop_outstanding ();
          ch := Dual.reconnect unit_ !ch
      | None -> ()
    end;
    if !burst_until >= 0 && !steps >= !burst_until then begin
      Link.set_tamper link ~src:Link.A None;
      burst_until := -1
    end;
    if Channel.is_established !ch && Queue.length outstanding < 2 then begin
      let p = payload !sent in
      (* Priority-class mix: a trickle of control traffic (always
         admitted, even breaker-open), alternating bulk/interactive for
         the rest — so a shedding plane demonstrably sheds bulk first. *)
      let klass =
        if !sent mod 5 = 0 then Cio_overload.Admission.Control
        else if !sent mod 2 = 1 then Cio_overload.Admission.Bulk
        else Cio_overload.Admission.Interactive
      in
      match
        Channel.send_admitted ~klass
          ?deadline:(Option.map Cio_overload.Plane.deadline plane)
          !ch p
      with
      | Channel.Sent ->
          incr sent;
          Queue.add p outstanding
      | Channel.Shed _ | Channel.Send_error _ -> ()
    end;
    match Channel.recv !ch with
    | Some m ->
        incr echoes;
        (match Queue.take_opt outstanding with
        | Some expect when Bytes.equal m expect -> ()
        | Some _ | None -> incr integrity);
        (* A fault counts as resolved only once a message *sent after the
           injection* completes a full round trip — an in-flight pre-fault
           echo proves nothing about recovery. *)
        let seq =
          let off = String.length Cio_attack.Attack.canary + 2 in
          if Bytes.length m >= off + 6 then
            int_of_string_opt (Bytes.sub_string m off 6)
          else None
        in
        let s = snap () in
        List.iter
          (fun r ->
            if r.f_applied && r.f_resolved = None
               && (match seq with Some q -> q >= r.f_sent0 | None -> false)
            then begin
              r.f_resolved <- Some (!steps, s);
              if Trace.on () then
                Trace.span_end ~cat:Kind.fault (fault_span_name r.f_kind)
            end)
          records
    | None -> ()
  done;
  Link.set_transit_tap link None;
  if Trace.on () then begin
    (* Close spans for faults that never resolved, then the campaign. *)
    List.iter
      (fun r ->
        if r.f_applied && r.f_resolved = None then
          Trace.span_end ~cat:Kind.fault (fault_span_name r.f_kind))
      records;
    Trace.span_end ~cat:Kind.fault "campaign"
  end;
  let end_snap = snap () in
  let faults =
    List.map
      (fun r ->
        let s0 = match r.f_snap with Some s -> s | None -> end_snap in
        let s1, rec_steps =
          match r.f_resolved with
          | Some (step, s1) -> (s1, Some (step - r.f_at))
          | None -> (end_snap, None)
        in
        let classification, detected =
          if not r.f_applied then ("never injected (campaign ended first)", false)
          else
            classify
              ~d_stalls:(s1.s_stalls - s0.s_stalls)
              ~d_reconnects:(s1.s_reconnects - s0.s_reconnects)
              ~d_confined:(s1.s_confined - s0.s_confined)
              ~d_crashes:(s1.s_crashes - s0.s_crashes)
        in
        {
          kind = r.f_kind;
          injected_at = r.f_at;
          classification;
          detected;
          recovered_in_steps = rec_steps;
          recovered_in_cycles =
            (match r.f_resolved with Some (_, s1) -> Some (s1.s_cycles - s0.s_cycles) | None -> None);
        })
      records
  in
  (match !san_region with Some r -> bank_sanitizer r | None -> ());
  let c = comp () in
  {
    seed = plan.Plan.seed;
    steps = !steps;
    sent = !sent;
    echoes = !echoes;
    lost = !lost;
    integrity_failures = !integrity;
    leaks = !leaks;
    confined = !confined_acc;
    sanitizer_double_fetches = !san_double;
    sanitizer_mutated_fetches = !san_mutated;
    stalls_detected = Watchdog.stalls_detected wd;
    resets = Driver.generation (Dual.driver unit_);
    reconnects = Dual.reconnects unit_;
    crashes = c.Cio_compartment.Compartment.crashes;
    restarts = c.Cio_compartment.Compartment.restarts;
    admitted = (match plane with Some p -> Cio_overload.Plane.admitted p | None -> 0);
    shed = (match plane with Some p -> Cio_overload.Plane.shed p | None -> 0);
    breaker_transitions =
      (match plane with
      | Some p -> Cio_overload.Breaker.transitions (Cio_overload.Plane.breaker p)
      | None -> 0);
    breaker_state =
      (match plane with
      | Some p ->
          Cio_overload.Breaker.state_name
            (Cio_overload.Breaker.state (Cio_overload.Plane.breaker p))
      | None -> "closed");
    faults;
    survived =
      !echoes >= config.target_echoes && !integrity = 0 && !leaks = 0
      && List.for_all (fun r -> r.f_applied && r.f_resolved <> None) records;
  }

let pp ppf t =
  Format.fprintf ppf "  campaign seed=%Ld: %d faults over %d steps@." t.seed
    (List.length t.faults) t.steps;
  List.iter
    (fun f ->
      Format.fprintf ppf "    step %6d  %-28s -> %s%s@." f.injected_at
        (Format.asprintf "%a" Plan.pp_kind f.kind)
        f.classification
        (match (f.recovered_in_steps, f.recovered_in_cycles) with
        | Some s, Some c -> Format.asprintf "; recovered in %d steps / %d cycles" s c
        | _ -> "; NOT RECOVERED"))
    t.faults;
  Format.fprintf ppf
    "    echoes %d/%d sent (%d lost in-flight to fail-closed recovery), integrity failures %d@."
    t.echoes t.sent t.lost t.integrity_failures;
  Format.fprintf ppf
    "    L2 confinements %d; stalls detected %d; ring resets %d; reconnects %d; domain crashes %d (restarts %d)@."
    t.confined t.stalls_detected t.resets t.reconnects t.crashes t.restarts;
  if t.sanitizer_double_fetches > 0 || t.sanitizer_mutated_fetches > 0 then
    Format.fprintf ppf "    sanitizer: %d double fetch(es), %d mutated between reads@."
      t.sanitizer_double_fetches t.sanitizer_mutated_fetches;
  if t.admitted + t.shed + t.breaker_transitions > 0 then
    Format.fprintf ppf
      "    overload plane: %d admitted, %d shed; breaker %s after %d transition(s)@."
      t.admitted t.shed t.breaker_state t.breaker_transitions;
  Format.fprintf ppf "    canary leaks to host: %d; survived: %s@." t.leaks
    (if t.survived then "yes" else "NO")

(* Machine-readable report (cio-campaign-v1 payload): every counted
   quantity, flat, for CI artifacts and offline diffing. *)
let to_json t =
  let int v = Json_lite.Num (float_of_int v) in
  let fault f =
    Json_lite.Obj
      [
        ("kind", Json_lite.Str (Format.asprintf "%a" Plan.pp_kind f.kind));
        ("injected_at", int f.injected_at);
        ("detected", Json_lite.Bool f.detected);
        ( "recovered_in_steps",
          match f.recovered_in_steps with Some s -> int s | None -> Json_lite.Null );
      ]
  in
  Json_lite.Obj
    [
      ("seed", Json_lite.Num (Int64.to_float t.seed));
      ("steps", int t.steps);
      ("sent", int t.sent);
      ("echoes", int t.echoes);
      ("lost", int t.lost);
      ("integrity_failures", int t.integrity_failures);
      ("leaks", int t.leaks);
      ("confined", int t.confined);
      ("stalls_detected", int t.stalls_detected);
      ("resets", int t.resets);
      ("reconnects", int t.reconnects);
      ("crashes", int t.crashes);
      ("restarts", int t.restarts);
      ("admitted", int t.admitted);
      ("shed", int t.shed);
      ("breaker_transitions", int t.breaker_transitions);
      ("breaker_state", Json_lite.Str t.breaker_state);
      ("faults", Json_lite.List (List.map fault t.faults));
      ("survived", Json_lite.Bool t.survived);
    ]

(* Tests for the fault-injection campaign engine and the self-healing
   machinery it drives: deterministic plans, crash containment + restart
   of the quarantined I/O stack, fail-closed record tampering, watchdog
   stall recovery — and the leak verdict that makes them safe. *)

open Cio_core
open Cio_fault
module Driver = Cio_cionet.Driver
module Host_model = Cio_cionet.Host_model
open Cio_compartment

(* --- plans --------------------------------------------------------------- *)

let test_plan_deterministic () =
  let a = Plan.generate ~seed:7L and b = Plan.generate ~seed:7L in
  Alcotest.(check bool) "same seed, same plan" true (a = b);
  let c = Plan.generate ~seed:8L in
  Alcotest.(check bool) "different seed, different plan" true (a <> c)

let test_plan_covers_every_layer () =
  let plan = Plan.generate ~seed:3L in
  let classes =
    List.map
      (fun { Plan.kind; _ } ->
        match kind with
        | Plan.Host (Host_model.Stall _) -> `Stall
        | Plan.Host (Host_model.Ring_freeze _ | Host_model.Silent_drop _) -> `Starve
        | Plan.Host
            ( Host_model.Lie_len _ | Host_model.Bad_index _ | Host_model.Garbage_state _
            | Host_model.Race_header _ | Host_model.Corrupt_payload | Host_model.Replay_slot ) ->
            `Sabotage
        | Plan.Link_burst _ -> `Link
        | Plan.Record_tamper -> `Record
        | Plan.Stack_crash _ -> `Crash)
      plan.Plan.injections
  in
  List.iter
    (fun cls -> Alcotest.(check bool) "layer class present" true (List.mem cls classes))
    [ `Stall; `Starve; `Sabotage; `Link; `Record; `Crash ];
  let steps = List.map (fun i -> i.Plan.at_step) plan.Plan.injections in
  Alcotest.(check bool) "injection steps strictly increasing" true
    (List.sort compare steps = steps && List.sort_uniq compare steps = steps)

let test_plan_prints_host_faults () =
  (* Reports name a host fault by the host model's own printer. *)
  List.iter
    (fun (m, expected) ->
      Alcotest.(check string) expected expected (Format.asprintf "%a" Plan.pp_kind (Plan.Host m)))
    [
      (Host_model.Stall 600, "host-stall(600 polls)");
      (Host_model.Ring_freeze 600, "ring-freeze(600 polls)");
      (Host_model.Silent_drop 2, "silent-drop(2 frames)");
      (Host_model.Lie_len 999_999, "lie-len(999999)");
      (Host_model.Bad_index 5000, "bad-index(5000)");
      (Host_model.Garbage_state 7, "garbage-state(0x7)");
      (Host_model.Race_header 6000, "race-header(6000)");
      (Host_model.Corrupt_payload, "corrupt-payload");
      (Host_model.Replay_slot, "replay-slot");
    ]

(* --- campaigns ----------------------------------------------------------- *)

(* Small, fast configuration: low watchdog budget, short fault windows. *)
let fast_config =
  { Campaign.default_config with Campaign.watchdog_budget = 120; max_steps = 150_000;
    target_echoes = 8 }

let run_injections ?(config = fast_config) ~seed injections =
  Campaign.run ~config { Plan.seed; injections }

let test_campaign_deterministic () =
  let plan =
    { Plan.seed = 5L;
      injections =
        [ { Plan.at_step = 800; kind = Plan.Host (Host_model.Stall 300) };
          { Plan.at_step = 25_000; kind = Plan.Record_tamper };
          { Plan.at_step = 50_000; kind = Plan.Stack_crash 120 } ] }
  in
  let show r = Format.asprintf "%a" Campaign.pp r in
  let a = show (Campaign.run ~config:fast_config plan) in
  let b = show (Campaign.run ~config:fast_config plan) in
  Alcotest.(check string) "same seed, byte-identical report" a b

let test_campaign_stall_watchdog_recovery () =
  let r = run_injections ~seed:21L [ { Plan.at_step = 700; kind = Plan.Host (Host_model.Stall 400) } ] in
  Alcotest.(check bool) "stall detected" true (r.Campaign.stalls_detected >= 1);
  Alcotest.(check bool) "ring reset" true (r.Campaign.resets >= 1);
  Alcotest.(check bool) "recovered" true (Campaign.all_recovered r);
  Alcotest.(check int) "no leaks" 0 r.Campaign.leaks;
  Alcotest.(check bool) "survived" true r.Campaign.survived

let test_campaign_crash_containment () =
  let r = run_injections ~seed:22L [ { Plan.at_step = 900; kind = Plan.Stack_crash 150 } ] in
  Alcotest.(check int) "one crash" 1 r.Campaign.crashes;
  Alcotest.(check int) "one restart" 1 r.Campaign.restarts;
  Alcotest.(check bool) "reconnected" true (r.Campaign.reconnects >= 1);
  Alcotest.(check bool) "recovered" true (Campaign.all_recovered r);
  Alcotest.(check int) "no integrity failures" 0 r.Campaign.integrity_failures;
  Alcotest.(check int) "no plaintext to host" 0 r.Campaign.leaks;
  Alcotest.(check bool) "survived" true r.Campaign.survived

let test_campaign_record_tamper_fail_closed () =
  let r = run_injections ~seed:23L [ { Plan.at_step = 600; kind = Plan.Record_tamper } ] in
  Alcotest.(check bool) "fresh session after tamper" true (r.Campaign.reconnects >= 1);
  Alcotest.(check int) "tampered record never surfaced" 0 r.Campaign.integrity_failures;
  Alcotest.(check int) "no leaks" 0 r.Campaign.leaks;
  Alcotest.(check bool) "survived" true r.Campaign.survived

let test_campaign_sabotage_confined () =
  let r =
    run_injections ~seed:24L
      [ { Plan.at_step = 500; kind = Plan.Host (Host_model.Lie_len 999_999) } ]
  in
  Alcotest.(check bool) "confined at L2" true (r.Campaign.confined >= 1);
  Alcotest.(check bool) "survived" true r.Campaign.survived

let test_tamper_helper_only_touches_payload () =
  (* The record-tamper helper must produce a frame that still parses at
     L2-L4 (that is the point: only the AEAD may notice), and that the
     oracle codecs would have produced: the frame rebuilt around the
     payload with its last bit flipped. *)
  let open Frame_oracle in
  let payload = Bytes.make 32 'p' in
  let seg =
    { Tcp_wire.src_port = 1234; dst_port = 443; seq = 7l; ack = 9l;
      flags = { Tcp_wire.syn = false; ack = true; fin = false; rst = false; psh = false };
      window = 65535; payload; mss = None }
  in
  let src = of_addr (Cio_frame.Addr.ipv4_of_octets 10 0 0 1)
  and dst = of_addr (Cio_frame.Addr.ipv4_of_octets 10 0 0 2) in
  let frame_of seg =
    let tcp = Tcp_wire.build ~src_ip:src ~dst_ip:dst seg in
    let ip = Ipv4.build { Ipv4.src; dst; protocol = Ipv4.Tcp; ttl = 64; payload = tcp } in
    Ethernet.build
      { Ethernet.src = Cio_frame.Addr.mac_of_octets 2 0 0 0 0 1;
        dst = Cio_frame.Addr.mac_of_octets 2 0 0 0 0 2; ethertype = Ethernet.Ipv4; payload = ip }
  in
  let eth = frame_of seg in
  match Campaign.tamper_tls_record eth with
  | None -> Alcotest.fail "tamper refused a payload-bearing frame"
  | Some eth' -> (
      Alcotest.(check bool) "frame changed" false (Bytes.equal eth eth');
      let flipped = Bytes.copy payload in
      Bytes.set flipped 31 (Char.chr (Char.code 'p' lxor 1));
      Helpers.check_bytes "rebuilt with the last payload bit flipped"
        (frame_of { seg with Tcp_wire.payload = flipped }) eth';
      match Ethernet.parse eth' with
      | Error _ -> Alcotest.fail "tampered frame no longer parses at L2"
      | Ok e -> (
          match Ipv4.parse e.Ethernet.payload with
          | Error _ -> Alcotest.fail "tampered frame no longer parses at L3"
          | Ok i -> (
              match Tcp_wire.parse ~src_ip:i.Ipv4.src ~dst_ip:i.Ipv4.dst i.Ipv4.payload with
              | Error _ -> Alcotest.fail "tampered frame no longer parses at L4"
              | Ok s ->
                  Alcotest.(check bool) "only the payload differs" false
                    (Bytes.equal s.Tcp_wire.payload payload))))

(* --- compartment crash / restart ----------------------------------------- *)

let test_crash_domain_fails_closed () =
  let world = Compartment.create ~crossing:Compartment.Gate () in
  let a = Compartment.add_domain world ~name:"app" in
  let io = Compartment.add_domain world ~name:"io" in
  Alcotest.(check int) "call works while alive" 41
    (Compartment.call world ~caller:a ~callee:io (fun () -> 41));
  Compartment.crash_domain world io;
  Alcotest.(check bool) "dead" false (Compartment.domain_alive io);
  (match Compartment.call world ~caller:a ~callee:io (fun () -> 1) with
  | _ -> Alcotest.fail "call into a crashed domain must fail"
  | exception Compartment.Access_violation _ -> ());
  Alcotest.(check int) "crash counted" 1 (Compartment.counters world).Compartment.crashes;
  Compartment.restart_domain world io;
  Alcotest.(check bool) "alive again" true (Compartment.domain_alive io);
  Alcotest.(check int) "fresh incarnation" 1 (Compartment.counters world).Compartment.restarts;
  Alcotest.(check int) "call works after restart" 42
    (Compartment.call world ~caller:a ~callee:io (fun () -> 42))

(* --- dual-unit crash recovery end to end --------------------------------- *)

let test_dual_survives_io_stack_crash () =
  let d = Testbed.attach_dual (Testbed.create ~name:"crash-test" ~psk_id:"t" ~seed:99L ()) in
  let unit_ = d.Testbed.unit_ in
  let step () = Testbed.pump d ~by:10_000L in
  let wait pred =
    let n = ref 0 in
    while (not (pred ())) && !n < 60_000 do incr n; step () done;
    pred ()
  in
  let ch = ref (Testbed.connect d) in
  Alcotest.(check bool) "established" true
    (wait (fun () -> Channel.is_established !ch));
  let echo msg =
    (match Channel.send !ch (Bytes.of_string msg) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "send failed");
    let got = ref None in
    ignore
      (wait (fun () ->
           (match Channel.recv !ch with Some m -> got := Some m | None -> ());
           !got <> None));
    match !got with
    | Some m -> Alcotest.(check string) "echo intact" msg (Bytes.to_string m)
    | None -> Alcotest.fail "no echo"
  in
  echo "before the crash";
  Dual.crash_io unit_;
  Alcotest.(check bool) "io dead" false (Dual.io_alive unit_);
  for _ = 1 to 200 do step () done;
  Dual.restart_io unit_;
  ch := Dual.reconnect unit_ !ch;
  Alcotest.(check bool) "re-established after restart" true
    (wait (fun () -> Channel.is_established !ch));
  echo "after the restart";
  Alcotest.(check int) "one ring reset" 1 (Driver.generation (Dual.driver unit_));
  Alcotest.(check int) "one reconnect" 1 (Dual.reconnects unit_)

let suite =
  [
    Alcotest.test_case "plan: deterministic" `Quick test_plan_deterministic;
    Alcotest.test_case "plan: covers every layer" `Quick test_plan_covers_every_layer;
    Alcotest.test_case "plan: prints host faults as reports do" `Quick test_plan_prints_host_faults;
    Alcotest.test_case "campaign: byte-identical reports" `Slow test_campaign_deterministic;
    Alcotest.test_case "campaign: stall -> watchdog recovery" `Slow
      test_campaign_stall_watchdog_recovery;
    Alcotest.test_case "campaign: crash contained + restart" `Slow
      test_campaign_crash_containment;
    Alcotest.test_case "campaign: record tamper fails closed" `Slow
      test_campaign_record_tamper_fail_closed;
    Alcotest.test_case "campaign: sabotage confined at L2" `Slow test_campaign_sabotage_confined;
    Alcotest.test_case "tamper: survives L2-L4, breaks at L5" `Quick
      test_tamper_helper_only_touches_payload;
    Alcotest.test_case "compartment: crash fails closed, restart revives" `Quick
      test_crash_domain_fails_closed;
    Alcotest.test_case "dual: survives I/O-stack crash" `Quick test_dual_survives_io_stack_crash;
  ]

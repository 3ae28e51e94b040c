(* Experiment harness: one entry per paper figure (F2-F5) and per §3
   exploration (E1-E11). Each prints the rows/series the corresponding
   figure reports; EXPERIMENTS.md records the paper-vs-measured
   comparison. All runs are deterministic (fixed seeds). *)

open Cio_util
open Cio_core
module C = Configurations
module Trace = Cio_telemetry.Trace
module Kind_ = Cio_telemetry.Kind
module Tcb = Cio_tcb.Tcb

let fp = Format.fprintf

(* --- F2: remotely exploitable /net CVEs per year ---------------------- *)

let fig2 ppf () =
  let open Cio_data in
  fp ppf "Figure 2: remotely-exploitable CVEs in Linux /net per year@.";
  List.iter (fun row -> fp ppf "  %a@." Cve_net.pp_row row) Cve_net.series;
  fp ppf "  total=%d  mean/yr=%.1f  peak=%d (%d)  trend slope=%+.2f CVEs/yr@."
    (Cve_net.total ()) (Cve_net.mean_per_year ()) (Cve_net.peak ()).Cve_net.count
    (Cve_net.peak ()).Cve_net.year (Cve_net.trend_slope ());
  fp ppf "  shape: CVEs in %d/%d years; the subsystem never converges to safety.@."
    (Cve_net.years_with_cves ()) (Cve_net.years_covered ())

(* --- F3/F4: hardening-commit distributions ---------------------------- *)

let hardening_figure ppf subsystem =
  let open Cio_data in
  List.iter
    (fun (cat, n) ->
      fp ppf "  %-18s %-22s %2d  (%4.1f%%)@." (Hardening.category_name cat) (String.make n '#') n
        (Hardening.percentage subsystem cat))
    (Hardening.distribution subsystem);
  fp ppf "  total hardening commits: %d; amend/revert: %d (%.0f%%), of which %d never re-applied@."
    (Hardening.total subsystem) (Hardening.amend_count subsystem)
    (100.0 *. Hardening.amend_rate subsystem)
    (Hardening.revert_count subsystem)

let fig3 ppf () =
  fp ppf "Figure 3: hardening commits to the NetVSC driver, by category@.";
  hardening_figure ppf Cio_data.Hardening.Netvsc

let fig4 ppf () =
  fp ppf "Figure 4: hardening commits to the VirtIO driver family, by category@.";
  hardening_figure ppf Cio_data.Hardening.Virtio

(* --- F5: the design space --------------------------------------------- *)

let fig5_runs () =
  List.map (fun kind -> (kind, C.run_echo ~messages:40 ~msg_size:1024 kind)) C.all_kinds

let fig5 ppf () =
  fp ppf "Figure 5: security (TCB, observability) vs performance@.";
  fp ppf "  workload: 40 x 1 KiB echo round trips, identical substrate@.";
  fp ppf "  %-16s %10s %9s %9s %12s %11s@." "config" "cycles/B" "obs-score" "obs-kinds"
    "coreTCB(LoC)" "quarantined";
  let runs = fig5_runs () in
  List.iter
    (fun (kind, m) ->
      let tcb = C.tcb kind in
      fp ppf "  %-16s %10.1f %9.2f %9d %12d %11d%s@." (C.kind_name kind) (C.cycles_per_byte m)
        (Cio_observe.Observe.score m.C.tap)
        (Cio_observe.Observe.kinds m.C.tap)
        (Tcb.sum tcb.C.core) (Tcb.sum tcb.C.quarantined)
        (if m.C.completed then "" else "  [INCOMPLETE]"))
    runs;
  fp ppf "  shape: dual-boundary = fastest datapath, small core TCB, network-level@.";
  fp ppf "  observability; syscall designs leak the most metadata; the tunnel hides@.";
  fp ppf "  the most and pays for it; hardening costs the legacy transport throughput.@."

(* Guest cycles spent on [count] TX+RX pairs of [payload] through a fresh
   cionet device: transmit, host poll, host delivers the echo, host poll,
   guest poll. *)
let cionet_pair_cost ?model ~name ~count cfg payload =
  let drv = Cio_cionet.Driver.create ?model ~name cfg in
  let host = Cio_cionet.Host_model.create ~driver:drv ~transmit:(fun _ -> ()) in
  let m = Cio_cionet.Driver.guest_meter drv in
  let before = Cost.snapshot m in
  for _ = 1 to count do
    ignore (Cio_cionet.Driver.transmit drv payload);
    Cio_cionet.Host_model.poll host;
    Cio_cionet.Host_model.deliver_rx host payload;
    Cio_cionet.Host_model.poll host;
    ignore (Cio_cionet.Driver.poll drv)
  done;
  Cost.diff ~before ~after:(Cost.snapshot m)

(* --- E1: data positioning --------------------------------------------- *)

let raw_ring_cost ~positioning ~msg_size ~count =
  let cfg =
    { Cio_cionet.Config.default with Cio_cionet.Config.positioning; ring_slots = 64 }
  in
  let d = cionet_pair_cost ~name:"e1" ~count cfg (Bytes.make msg_size 'e') in
  float_of_int (Cost.total d) /. float_of_int count

let e1 ppf () =
  fp ppf "E1: data positioning (guest cycles per TX+RX message pair)@.";
  let sizes = [ 64; 256; 1024; 2048 ] in
  let variants =
    [
      ("inline", Cio_cionet.Config.Inline { data_capacity = 2048 });
      ("pool", Cio_cionet.Config.Pool { pool_slots = 128; pool_slot_size = 2048 });
      ("indirect", Cio_cionet.Config.Indirect { desc_count = 128; pool_slots = 128; pool_slot_size = 2048 });
    ]
  in
  fp ppf "  %-10s" "size(B)";
  List.iter (fun (name, _) -> fp ppf " %10s" name) variants;
  fp ppf "@.";
  List.iter
    (fun size ->
      fp ppf "  %-10d" size;
      List.iter
        (fun (_, positioning) -> fp ppf " %10.0f" (raw_ring_cost ~positioning ~msg_size:size ~count:64))
        variants;
      fp ppf "@.")
    sizes;
  fp ppf "  shape: inline cheapest (no indirection); indirect pays an extra shared@.";
  fp ppf "  fetch + mask per message; pool sits between.@."

(* --- E2: revocation vs copy crossover --------------------------------- *)

let rx_cost ?(model = Cost.default) ~strategy ~msg_size ~count () =
  let capacity = max 4096 (Bitops.next_power_of_two msg_size) in
  let cfg =
    {
      Cio_cionet.Config.default with
      Cio_cionet.Config.positioning = Cio_cionet.Config.Inline { data_capacity = capacity };
      rx_strategy = strategy;
      ring_slots = 16;
    }
  in
  let drv = Cio_cionet.Driver.create ~model ~name:"e2" cfg in
  let host = Cio_cionet.Host_model.create ~driver:drv ~transmit:(fun _ -> ()) in
  let payload = Bytes.make msg_size 'r' in
  let m = Cio_cionet.Driver.guest_meter drv in
  let before = Cost.snapshot m in
  for _ = 1 to count do
    Cio_cionet.Host_model.deliver_rx host payload;
    Cio_cionet.Host_model.poll host;
    ignore (Cio_cionet.Driver.poll drv)
  done;
  let d = Cost.diff ~before ~after:(Cost.snapshot m) in
  float_of_int (Cost.total d) /. float_of_int count

let e2 ppf () =
  fp ppf "E2: receive strategy — early copy vs page revocation (cycles/message)@.";
  fp ppf "  %-10s %10s %10s %s@." "size(B)" "copy" "revoke" "winner";
  let crossover = ref None in
  List.iter
    (fun size ->
      let copy = rx_cost ~strategy:Cio_cionet.Config.Copy_in ~msg_size:size ~count:32 () in
      let revoke = rx_cost ~strategy:Cio_cionet.Config.Revoke ~msg_size:size ~count:32 () in
      if revoke < copy && !crossover = None then crossover := Some size;
      fp ppf "  %-10d %10.0f %10.0f %s@." size copy revoke
        (if copy <= revoke then "copy" else "REVOKE"))
    [ 256; 1024; 4096; 8192; 16384; 32768; 65536 ];
  (match !crossover with
  | Some s -> fp ppf "  crossover: revocation wins from ~%d B (batched shootdowns amortise).@." s
  | None -> fp ppf "  no crossover in range (copy wins throughout).@.");
  fp ppf "  shape: copies win for packet-sized messages; revocation wins for large@.";
  fp ppf "  (multi-page) transfers — matching the paper's expectation that this is@.";
  fp ppf "  a size-dependent design choice.@.";
  (* End-to-end addendum: the same copy-vs-revoke choice, but measured
     through the full dual-boundary unit (TLS at L5, quarantined stack,
     cionet at L2) rather than against a bare ring. This is where the
     strategy's cost actually lands in the proposed design — and a traced
     run of it crosses both boundaries. *)
  fp ppf "  end-to-end (dual-boundary echo, 8 x 1 KiB):@.";
  List.iter
    (fun (label, strategy) ->
      let cfg = { Cio_cionet.Config.default with Cio_cionet.Config.rx_strategy = strategy } in
      let m = C.run_echo ~seed:7L ~messages:8 ~msg_size:1024 ~cionet_config:cfg C.Dual_boundary in
      fp ppf "    %-8s %s, %.1f cycles/B, %d L5 crossings@." label
        (if m.C.completed then "completed" else "DID NOT COMPLETE")
        (C.cycles_per_byte m) m.C.crossings)
    [ ("copy", Cio_cionet.Config.Copy_in); ("revoke", Cio_cionet.Config.Revoke) ]

(* --- E3: hardening tax at the transport ------------------------------- *)

let virtio_frame_cost ?model ~hardened ~count () =
  let transport = Cio_virtio.Transport.create ?model ~name:"e3" () in
  let dev =
    Cio_virtio.Device.create ~rx:(Cio_virtio.Transport.rx transport)
      ~tx:(Cio_virtio.Transport.tx transport) ~transmit:(fun _ -> ())
  in
  let m = Cio_mem.Region.meter (Cio_virtio.Transport.region transport) in
  let payload = Bytes.make 1500 'f' in
  if hardened then begin
    let drv = Cio_virtio.Driver_hardened.create transport in
    let before = Cost.snapshot m in
    for _ = 1 to count do
      ignore (Cio_virtio.Driver_hardened.transmit drv payload);
      Cio_virtio.Device.deliver_rx dev payload;
      Cio_virtio.Device.poll dev;
      ignore (Cio_virtio.Driver_hardened.poll drv)
    done;
    Cost.diff ~before ~after:(Cost.snapshot m)
  end
  else begin
    let drv = Cio_virtio.Driver_unhardened.create transport in
    let before = Cost.snapshot m in
    for _ = 1 to count do
      ignore (Cio_virtio.Driver_unhardened.transmit drv payload);
      Cio_virtio.Device.deliver_rx dev payload;
      Cio_virtio.Device.poll dev;
      ignore (Cio_virtio.Driver_unhardened.poll drv)
    done;
    Cost.diff ~before ~after:(Cost.snapshot m)
  end

let e3 ppf () =
  fp ppf "E3: the hardening tax (guest cycles per 1500 B TX+RX pair)@.";
  let count = 64 in
  let rows =
    [
      ("virtio-unhardened", virtio_frame_cost ~hardened:false ~count ());
      ("virtio-hardened", virtio_frame_cost ~hardened:true ~count ());
      ( "cionet (this work)",
        cionet_pair_cost ~name:"e3c" ~count Cio_cionet.Config.default (Bytes.make 1500 'f') );
    ]
  in
  fp ppf "  %-20s %10s   breakdown@." "transport" "cyc/frame";
  List.iter
    (fun (name, d) ->
      fp ppf "  %-20s %10.0f   %a@." name
        (float_of_int (Cost.total d) /. float_of_int count)
        Cost.pp_meter d)
    rows;
  fp ppf "  shape: retrofitted hardening pays checks + systematic copies on the@.";
  fp ppf "  legacy transport; the from-scratch interface is safe *and* cheaper than@.";
  fp ppf "  both (no notifications, one early copy, masked accesses).@."

(* --- E4: attack resilience matrix -------------------------------------- *)

let e4 ppf () =
  let open Cio_attack in
  fp ppf "E4: interface-attack resilience matrix@.";
  fp ppf "  %-20s" "scenario";
  List.iter (fun t -> fp ppf " %-18s" (Attack.target_name t)) Attack.all_targets;
  fp ppf "@.";
  List.iter
    (fun (s, row) ->
      fp ppf "  %-20s" s.Attack.sname;
      List.iter (fun (_, o) -> fp ppf " %-18s" (Attack.outcome_name o)) row;
      fp ppf "@.")
    (Attack.matrix ());
  let sc = Attack.run_stack_compromise () in
  fp ppf "  compromised I/O stack (ternary model): direct read -> %s; forged stream -> %s@."
    (Attack.outcome_name sc.Attack.direct_read)
    (Attack.outcome_name sc.Attack.forged_stream);
  fp ppf "  shape: unhardened falls to every class; hardening stops interface attacks@.";
  fp ppf "  at a cost; the safe interface confines them by construction; whatever@.";
  fp ppf "  remains expressible at L2 (payload replay/corruption) fails closed at L5.@."

(* --- E5: observability by boundary ------------------------------------- *)

let e5 ppf () =
  fp ppf "E5: host observability by boundary placement@.";
  List.iter
    (fun (kind, m) ->
      fp ppf "  %a@." Cio_observe.Observe.pp_summary m.C.tap;
      ignore kind)
    (fig5_runs ());
  fp ppf "  shape: syscall-level boundaries expose operation types, sizes and@.";
  fp ppf "  timings; raw L2 exposes frame metadata plus doorbells; the dual design@.";
  fp ppf "  exposes frames only (polling); the tunnel reduces the channel to@.";
  fp ppf "  uniform blobs at uniform cadence.@."

(* --- E6: TCB by boundary ------------------------------------------------ *)

let e6 ppf () =
  fp ppf "E6: confidential-core TCB by configuration (LoC measured on this repo)@.";
  let names cs = String.concat "+" (List.map Tcb.component_name cs) in
  List.iter
    (fun kind ->
      let { C.core; quarantined } = C.tcb kind in
      fp ppf "  %-16s core=%5d LoC (%s)" (C.kind_name kind) (Tcb.sum core) (names core);
      if quarantined <> [] then
        fp ppf " | quarantined=%d LoC (%s)" (Tcb.sum quarantined) (names quarantined);
      fp ppf "@.")
    C.all_kinds;
  fp ppf "  shape: the dual boundary removes the whole stack+driver from the core@.";
  fp ppf "  TCB; compromising the quarantined stack yields observability only (E4).@."

(* --- E7: zero-copy send / recv-copy ablation ---------------------------- *)

let channel_copy_cycles ~zero_copy_send ~copy_on_recv =
  (* One 16 KiB message over an in-memory stack pair; report the Copy
     cycles attributable to the L5 boundary. *)
  let open Cio_tcpip in
  let mac_a = Cio_frame.Addr.mac_of_octets 2 0 0 0 0 1 in
  let mac_b = Cio_frame.Addr.mac_of_octets 2 0 0 0 0 2 in
  let ip_a = Cio_frame.Addr.ipv4_of_octets 10 9 0 1 in
  let ip_b = Cio_frame.Addr.ipv4_of_octets 10 9 0 2 in
  let nif_a, nif_b = Netif.loopback_pair ~mac_a ~mac_b ~mtu:1500 in
  let clock = ref 0L in
  let now () = !clock in
  let rng = Rng.create 8L in
  let sa = Stack.create ~netif:nif_a ~ip:ip_a ~neighbors:[ (ip_b, mac_b) ] ~now ~rng () in
  let sb = Stack.create ~netif:nif_b ~ip:ip_b ~neighbors:[ (ip_a, mac_a) ] ~now ~rng () in
  let listener = Tcp.listen (Stack.tcp sb) ~port:1 () in
  let conn = Tcp.connect (Stack.tcp sa) ~dst:ip_b ~dst_port:1 () in
  let step () =
    Stack.poll sa;
    Stack.poll sb;
    clock := Int64.add !clock 1_000_000L
  in
  let server = ref None in
  for _ = 1 to 10 do
    step ();
    if !server = None then server := Tcp.accept listener
  done;
  let psk = Bytes.make 32 'e' in
  let meter = Cost.meter () in
  let c_sess = Cio_tls.Session.create ~meter ~role:Cio_tls.Session.Client ~psk ~psk_id:"e7" ~rng () in
  let s_sess = Cio_tls.Session.create ~role:Cio_tls.Session.Server ~psk ~psk_id:"e7" ~rng () in
  let ch_c =
    Channel.create ~zero_copy_send ~copy_on_recv ~meter ~session:c_sess ~stack:sa ~conn ()
  in
  let ch_s =
    Channel.create ~meter:(Cost.meter ()) ~session:s_sess ~stack:sb
      ~conn:(Option.get !server) ()
  in
  ignore (Channel.start_handshake ch_c);
  let pump () =
    Channel.pump ch_c;
    Channel.pump ch_s;
    step ()
  in
  for _ = 1 to 30 do
    pump ()
  done;
  let before = Cost.cycles_of meter Cost.Copy in
  ignore (Channel.send ch_c (Bytes.make 16000 'z'));
  (match Channel.send ch_s (Bytes.make 16000 'y') with Ok () | Error _ -> ());
  for _ = 1 to 60 do
    pump ()
  done;
  Cost.cycles_of meter Cost.Copy - before

let e7 ppf () =
  fp ppf "E7: L5 copy ablation, one 16 KiB message each way (Copy cycles at the boundary)@.";
  let rows =
    [
      ("copy send + copy recv", false, true);
      ("zero-copy send + copy recv", true, true);
      ("copy send + trusted recv", false, false);
      ("zero-copy send + trusted recv", true, false);
    ]
  in
  List.iter
    (fun (name, zc, cr) ->
      fp ppf "  %-30s %8d cycles@." name (channel_copy_cycles ~zero_copy_send:zc ~copy_on_recv:cr))
    rows;
  fp ppf "  shape: 'trusted component allocates' removes the send-side copy; the@.";
  fp ppf "  recv-side copy remains the price of distrusting the I/O stack (or is@.";
  fp ppf "  replaced by revocation, E2).@."

(* --- E8: gate vs two-TEE dual boundary ---------------------------------- *)

let e8 ppf () =
  let open Cio_compartment in
  fp ppf "E8: L5 boundary mechanism — intra-TEE gate vs second TEE@.";
  let cost crossing =
    let w = Compartment.create ~crossing () in
    let a = Compartment.add_domain w ~name:"a" and b = Compartment.add_domain w ~name:"b" in
    for _ = 1 to 1000 do
      Compartment.call w ~caller:a ~callee:b ignore
    done;
    Cost.cycles_of (Compartment.meter w) Cost.Gate / 1000
  in
  let gate = cost Compartment.Gate and tee = cost Compartment.Tee_switch in
  fp ppf "  compartment gate : %6d cycles per crossing@." gate;
  fp ppf "  TEE world switch : %6d cycles per crossing (%.0fx)@." tee
    (float_of_int tee /. float_of_int gate);
  let dual_gate = C.run_echo ~messages:20 C.Dual_boundary in
  fp ppf "  end-to-end (20 echoes): gate-based dual = %d total cycles, %d crossings@."
    (Cost.total dual_gate.C.guest) dual_gate.C.crossings;
  fp ppf "  shape: a dual-distrust (two-TEE) boundary at L5 would pay ~%.0fx per@."
    (float_of_int tee /. float_of_int gate);
  fp ppf "  handoff where single distrust needs only a gate — the §3.1 argument for@.";
  fp ppf "  compartment-based L5.@."

(* --- E9: storage generalisation ----------------------------------------- *)

let e9 ppf () =
  let open Cio_storage in
  fp ppf "E9: the dual boundary generalised to storage@.";
  let run mode =
    let dev, _ = Blockdev.create ~name:"e9" ~blocks:512 () in
    let fs = File.create ~dev ~mode in
    let m = File.meter fs in
    let content = Bytes.make (256 * 1024) 's' in
    let before = Cost.snapshot m in
    (match File.write_file fs ~name:"f" content with Ok () -> () | Error _ -> ());
    (match File.read_file fs ~name:"f" with Ok _ -> () | Error _ -> ());
    Cost.total (Cost.diff ~before ~after:(Cost.snapshot m))
  in
  let plain = run File.Plain and sealed = run (File.Sealed (Bytes.make 32 'K')) in
  fp ppf "  256 KiB write+read: plain=%d cycles, sealed=%d cycles (%.2fx)@." plain sealed
    (float_of_int sealed /. float_of_int plain);
  (* Attack rows. *)
  let attack mode inject =
    let dev, disk = Blockdev.create ~name:"e9a" ~blocks:64 () in
    let fs = File.create ~dev ~mode in
    ignore (File.write_file fs ~name:"f" (Bytes.make 1000 'a'));
    Blockdev.disk_inject disk inject;
    match File.read_file fs ~name:"f" with
    | Ok got -> if Bytes.equal got (Bytes.make 1000 'a') then "unaffected" else "SILENTLY WRONG"
    | Error (File.Integrity _) -> "fail-closed"
    | Error e -> "error: " ^ File.error_to_string e
  in
  fp ppf "  %-22s %-16s %-16s@." "host attack" "plain FS" "sealed FS";
  List.iter
    (fun (name, inject) ->
      fp ppf "  %-22s %-16s %-16s@." name
        (attack File.Plain inject)
        (attack (File.Sealed (Bytes.make 32 'K')) inject))
    [ ("corrupt block", Blockdev.Corrupt_block); ("remap block", Blockdev.Wrong_lba) ];
  fp ppf "  shape: the same split works for storage — low boundary on the safe ring,@.";
  fp ppf "  cryptographic high boundary; a hostile disk degrades to denial of service.@."

(* --- E10: direct device assignment --------------------------------------- *)

let e10 ppf () =
  let open Cio_dda in
  fp ppf "E10: direct device assignment (TDISP-style) vs paravirtual designs@.";
  let rng = Rng.create 17L in
  (match Dda.establish ~rng () with
  | Error e -> fp ppf "  honest device: UNEXPECTED %s@." (Dda.error_to_string e)
  | Ok t ->
      let payload = Bytes.make 4096 'd' in
      let before = Cost.snapshot (Dda.meter t) in
      for _ = 1 to 32 do
        ignore (Dda.transfer t payload)
      done;
      let per = Cost.total (Cost.diff ~before ~after:(Cost.snapshot (Dda.meter t))) / 32 in
      fp ppf "  honest attested device: %d guest cycles / 4 KiB round trip (IDE in hardware)@." per);
  (match Dda.establish ~counterfeit:true ~rng () with
  | Error e -> fp ppf "  counterfeit device: rejected (%s)@." (Dda.error_to_string e)
  | Ok _ -> fp ppf "  counterfeit device: ACCEPTED (should not happen)@.");
  (match Dda.establish ~behavior:Dda.Compromised ~rng () with
  | Error e -> fp ppf "  compromised device: %s@." (Dda.error_to_string e)
  | Ok t -> (
      match Dda.transfer t (Bytes.of_string "trusting-you") with
      | Ok data when not (Bytes.equal data (Bytes.of_string "trusting-you")) ->
          fp ppf "  compromised-but-attested device: corrupted data ACCEPTED SILENTLY@."
      | _ -> fp ppf "  compromised device: unexpected benign behaviour@."));
  (match Dda.establish ~rng () with
  | Ok t -> (
      match Dda.transfer_with_host_tamper t (Bytes.make 64 'x') with
      | Error Dda.Link_tampered -> fp ppf "  host-in-the-middle on IDE link: detected@."
      | _ -> fp ppf "  host tamper: NOT detected@.")
  | Error _ -> ());
  fp ppf "  shape: DDA is the cheapest datapath and needs no driver hardening, but@.";
  fp ppf "  attestation proves identity, not honesty — a compromised device sits@.";
  fp ppf "  inside the TCB (the paper's §3.4 trade-off).@."

(* --- E11: polling vs notifications ---------------------------------------- *)

let e11 ppf () =
  fp ppf "E11: no-notifications principle (cionet with/without doorbells)@.";
  let run use_notifications =
    let cfg = { Cio_cionet.Config.default with Cio_cionet.Config.use_notifications } in
    let d = cionet_pair_cost ~name:"e11" ~count:64 cfg (Bytes.make 1024 'n') in
    (Cost.total d / 64, Cost.count_of d Cost.Notification)
  in
  let poll_cyc, poll_n = run false in
  let notif_cyc, notif_n = run true in
  fp ppf "  polling      : %6d cycles/pair, %d notifications@." poll_cyc poll_n;
  fp ppf "  notifications: %6d cycles/pair, %d notifications@." notif_cyc notif_n;
  fp ppf "  shape: doorbells add host-visible events (E5) and per-message cost, and@.";
  fp ppf "  the hardening corpus (F4) shows their races are what needed fixing; under@.";
  fp ppf "  polling neither exists.@."

(* --- E12: live migration by device hot swap -------------------------------- *)

(* A full dual-boundary echo session; halfway through, the device is
   hot-swapped (old region revoked wholesale, fresh instance, host
   re-attaches). The zero-negotiation interface has no state to migrate;
   TCP retransmission and the L5 record layer absorb the cable-pull. *)
let e12 ppf () =
  fp ppf "E12: live migration by device hot swap (the §3.2 zero-negotiation payoff)@.";
  let d = Testbed.attach_dual (Testbed.create ~name:"e12" ~psk_id:"experiments" ~seed:66L ()) in
  let unit_ = d.Testbed.unit_ in
  let ch = Testbed.connect d in
  let echoes = ref 0 and sent = ref 0 and steps = ref 0 in
  let payload = Bytes.make 512 'm' in
  let swap_at = 10 and target = 20 in
  let swapped_step = ref 0 and recovered_step = ref 0 in
  while !echoes < target && !steps < 300_000 do
    incr steps;
    Testbed.pump d ~by:5_000L;
    if Channel.is_established ch && !sent < target && !sent - !echoes < 2 then
      if (match Channel.send ch payload with Ok () -> true | Error _ -> false) then incr sent;
    (match Channel.recv ch with
    | Some _ ->
        incr echoes;
        if !echoes = swap_at + 1 && !recovered_step = 0 && !swapped_step > 0 then
          recovered_step := !steps
    | None -> ());
    if !echoes = swap_at && !swapped_step = 0 then begin
      swapped_step := !steps;
      Cio_cionet.Driver.hot_swap (Dual.driver unit_);
      Cio_cionet.Host_model.reattach d.Testbed.host ~driver:(Dual.driver unit_)
    end
  done;
  fp ppf "  echoes before swap: %d; hot swap at step %d; first echo after swap at step %d@."
    swap_at !swapped_step !recovered_step;
  fp ppf "  completed %d/%d echoes; device generation now %d; channel error: %s@." !echoes target
    (Cio_cionet.Driver.generation (Dual.driver unit_))
    (match Channel.error ch with
    | None -> "none"
    | Some e -> Cio_tls.Session.error_to_string e);
  fp ppf "  recovery gap: %d steps (~%.1f ms simulated), driven purely by TCP@."
    (!recovered_step - !swapped_step)
    (float_of_int ((!recovered_step - !swapped_step) * 5_000) /. 1e6);
  fp ppf "  shape: nothing is negotiated, transferred, or replayed across the swap —@.";
  fp ppf "  the stateless interface makes migration a cable pull that transport-@.";
  fp ppf "  layer retransmission already handles; contrast virtio-net failover's@.";
  fp ppf "  stateful migration machinery [63].@."

(* --- E13: L2 size padding (observability ablation) -------------------------- *)

let e13 ppf () =
  let open Cio_netsim in
  fp ppf "E13: padding dual-boundary frames to the MTU (observability ablation)@.";
  let run pad_frames =
    let bed =
      Testbed.create ~name:(if pad_frames then "dual+pad" else "dual") ~psk_id:"experiments"
        ~seed:77L ()
    in
    let cionet_config = { Cio_cionet.Config.default with Cio_cionet.Config.pad_frames } in
    let d = Testbed.attach_dual ~cionet_config bed in
    let ch = Testbed.connect d in
    let rng_sizes = Rng.create 5L in
    let echoes = ref 0 and sent = ref 0 and steps = ref 0 in
    while !echoes < 30 && !steps < 100_000 do
      incr steps;
      Testbed.pump d ~by:2_000L;
      if Channel.is_established ch && !sent < 30 && !sent - !echoes < 2 then begin
        (* Varied sizes: what padding is supposed to hide. *)
        let payload = Bytes.make (32 + Rng.int rng_sizes 900) 'p' in
        match Channel.send ch payload with Ok () -> incr sent | Error _ -> ()
      end;
      match Channel.recv ch with Some _ -> incr echoes | None -> ()
    done;
    (bed.tap, Link.bytes_sent bed.link ~src:Link.A + Link.bytes_sent bed.link ~src:Link.B)
  in
  let tap_plain, bytes_plain = run false in
  let tap_pad, bytes_pad = run true in
  fp ppf "  plain : %a; wire bytes %d@." Cio_observe.Observe.pp_summary tap_plain bytes_plain;
  fp ppf "  padded: %a; wire bytes %d@." Cio_observe.Observe.pp_summary tap_pad bytes_pad;
  fp ppf "  shape: padding TX frames to the MTU collapses size buckets toward the@.";
  fp ppf "  tunnel's profile at %.1fx wire-bandwidth cost — a knob between the@."
    (float_of_int bytes_pad /. float_of_int (max 1 bytes_plain));
  fp ppf "  dual design's default and LightBox-style full cover traffic.@."

(* --- E14: cost-model sensitivity -------------------------------------------- *)

(* DESIGN.md promises that no reported shape hinges on a single constant:
   sweep the constants the headline results depend on and re-check the
   orderings. *)
let e14 ppf () =
  fp ppf "E14: cost-model sensitivity of the headline shapes@.";
  (* (a) E2 crossover vs revocation cost. *)
  fp ppf "  (a) copy-vs-revoke crossover as page_unshare scales:@.";
  List.iter
    (fun scale ->
      let model =
        {
          Cost.default with
          Cost.page_unshare = Cost.default.Cost.page_unshare * scale / 2;
          page_unshare_extra = Cost.default.Cost.page_unshare_extra * scale / 2;
          page_share = Cost.default.Cost.page_share * scale / 2;
          page_share_extra = Cost.default.Cost.page_share_extra * scale / 2;
        }
      in
      let crossover =
        List.find_opt
          (fun size ->
            let copy = rx_cost ~model ~strategy:Cio_cionet.Config.Copy_in ~msg_size:size ~count:8 () in
            let revoke = rx_cost ~model ~strategy:Cio_cionet.Config.Revoke ~msg_size:size ~count:8 () in
            revoke < copy)
          [ 1024; 4096; 8192; 16384; 32768; 65536 ]
      in
      fp ppf "      unshare x%.1f: crossover at %s@."
        (float_of_int scale /. 2.0)
        (match crossover with Some s -> Printf.sprintf "%d B" s | None -> ">64 KiB"))
    [ 1; 2; 4; 8 ];
  (* (b) E3 ordering vs notification cost. *)
  fp ppf "  (b) transport ordering (cionet < unhardened < hardened) as notification cost scales:@.";
  List.iter
    (fun scale ->
      let model =
        { Cost.default with Cost.notification = Cost.default.Cost.notification * scale / 2 }
      in
      let cost_of f = float_of_int (Cost.total f) in
      (* Re-run the E3 micro-workload under the scaled model. *)
      let virtio hardened = virtio_frame_cost ~model ~hardened ~count:16 () in
      let cionet =
        cionet_pair_cost ~model ~name:"e14c" ~count:16 Cio_cionet.Config.default
          (Bytes.make 1500 'f')
      in
      let u = cost_of (virtio false) and h = cost_of (virtio true) and c = cost_of cionet in
      fp ppf "      notify x%.1f: cionet=%.0f unhardened=%.0f hardened=%.0f -> ordering %s@."
        (float_of_int scale /. 2.0)
        c u h
        (if c < u && u < h then "HOLDS" else "changes");
      ())
    [ 1; 2; 4 ];
  fp ppf "  shape: the crossover location moves with the revocation cost but always@.";
  fp ppf "  exists; the transport ordering is insensitive to the notification@.";
  fp ppf "  constant (the hardened driver's copies dominate its tax).@."

(* --- E15: split vs packed virtqueue hardening needs -------------------------- *)

(* §2.5: "The VirtIO standard for example supports at least two alternative
   virtqueue formats, each featuring unique hardening needs." Both formats
   are implemented (lib/virtio/vring.ml, lib/virtio/packed.ml); this
   experiment contrasts their hardened-driver check inventories and runs
   the packed-specific attacks against both packed driver variants. *)
let e15 ppf () =
  let open Cio_virtio in
  fp ppf "E15: split vs packed virtqueue — unique hardening needs per format@.";
  fp ppf "  split-format hardened checks:@.";
  List.iter
    (fun (check, unique) -> fp ppf "    [%s] %s@." (if unique then "format-specific" else "common ") check)
    Packed.split_hardened_check_inventory;
  fp ppf "  packed-format hardened checks:@.";
  List.iter
    (fun (check, unique) -> fp ppf "    [%s] %s@." (if unique then "format-specific" else "common ") check)
    Packed.hardened_check_inventory;
  let run_attack ~hardened inject expected_frame =
    let tr = Packed.create_transport ~name:"e15" () in
    let dev = Packed.create_device ~transport:tr ~transmit:(fun _ -> ()) in
    let drv = Packed.create_driver ~hardened tr in
    Packed.device_inject dev inject;
    Packed.device_deliver_rx dev expected_frame;
    Packed.device_poll dev;
    match
      let frames = ref [] in
      for _ = 1 to 4 do
        match Packed.driver_poll drv with Some f -> frames := f :: !frames | None -> ()
      done;
      !frames
    with
    | exception Cio_mem.Region.Fault _ -> "CRASH"
    | exception Invalid_argument _ -> "CORRUPTION"
    | frames -> (
        let wrap_rej, id_rej, clamped = Packed.driver_rejects drv in
        match frames with
        | [] when wrap_rej + id_rej > 0 -> "rejected"
        | [] -> "no-frame"
        | fs ->
            if List.exists (fun f -> Bytes.length f > Bytes.length expected_frame && clamped = 0) fs
            then "OVER-READ"
            else if List.length fs > 1 then "DUPLICATE"
            else if List.exists (fun f -> not (Bytes.equal f expected_frame)) fs then
              if clamped > 0 then "clamped" else "WRONG-DATA"
            else "intact")
  in
  let honest = Bytes.of_string "honest-frame" in
  fp ppf "  packed-specific attacks:@.";
  fp ppf "    %-18s %-14s %-14s@." "attack" "unhardened" "hardened";
  List.iter
    (fun (name, inject) ->
      fp ppf "    %-18s %-14s %-14s@." name
        (run_attack ~hardened:false inject honest)
        (run_attack ~hardened:true inject honest))
    [
      ("lie-len", Packed.P_lie_len 6000);
      ("bogus-id", Packed.P_bogus_id 5000);
      ("wrap-replay", Packed.P_wrap_replay);
      ("premature-used", Packed.P_premature_used);
    ];
  fp ppf "  shape: the two formats need different check inventories (wrap-counter@.";
  fp ppf "  discipline and in-place completion shadowing exist only in packed; chain@.";
  fp ppf "  walking exists only in split) — hardening effort does not transfer@.";
  fp ppf "  between formats, which is §2.5's argument that broad standards multiply@.";
  fp ppf "  the retrofit burden.@."

(* --- E16: fault-injection campaigns and the self-healing datapath ------------- *)

(* The robustness payoff of the paper's design principles, measured: a
   deterministic, seed-driven campaign throws faults at every layer —
   host device model (stalls, freezes, silent drops, header sabotage),
   link adversary bursts, in-flight TLS record tampering, and a crash of
   the quarantined I/O-stack domain — while the datapath heals itself
   (driver watchdog + generation-bumping ring reset, TCP retransmission,
   fail-closed PSK re-establishment, compartment restart) and the canary
   tap certifies that no plaintext ever reached the host. *)
let e16 ppf () =
  let open Cio_fault in
  fp ppf "E16: fault-injection campaigns — a self-healing datapath under a hostile host@.";
  let seeds = [ 11L; 42L; 1337L ] in
  let reports =
    List.map
      (fun seed ->
        let plan = Plan.generate ~seed () in
        let r = Campaign.run plan in
        fp ppf "%a" Campaign.pp r;
        r)
      seeds
  in
  let all p = List.for_all p reports in
  fp ppf "  verdict over %d campaigns (%d faults):@." (List.length reports)
    (List.fold_left (fun a r -> a + List.length r.Campaign.faults) 0 reports);
  fp ppf "    every fault detected or tolerated, datapath recovered: %s@."
    (if all Campaign.all_recovered then "yes" else "NO");
  fp ppf "    zero integrity failures: %s; zero canary/plaintext leaks to host: %s@."
    (if all (fun r -> r.Campaign.integrity_failures = 0) then "yes" else "NO")
    (if all (fun r -> r.Campaign.leaks = 0) then "yes" else "NO");
  fp ppf "  shape: statelessness makes recovery unilateral — the watchdog can throw@.";
  fp ppf "  the device away on a deadline because nothing is negotiated; TLS makes@.";
  fp ppf "  it safe — stack death and record tampering end in a fresh PSK handshake,@.";
  fp ppf "  never a renegotiation, and never plaintext below L5.@."

(* --- E17: decomposition ablation --------------------------------------------- *)

(* How much of the dual design's Figure-5 position comes from the safe
   transport, and how much from the boundary split? Cross the two choices. *)
let e17 ppf () =
  fp ppf "E17: decomposition — transport choice x boundary placement (cycles/B)@.";
  fp ppf "  %-18s %-22s %-22s@." "" "stack in core TCB" "stack quarantined";
  List.iter
    (fun transport ->
      let cell quarantined =
        let completed, cyc, crossings =
          C.run_echo_custom ~transport ~quarantined
        in
        if completed then Printf.sprintf "%6.1f cyc/B (%d gates)" cyc crossings
        else "INCOMPLETE"
      in
      fp ppf "  %-18s %-22s %-22s@." (C.transport_name transport) (cell false) (cell true))
    [ C.T_virtio_hardened; C.T_cionet ];
  fp ppf "  shape: the transport choice dominates the cycle budget (notifications +@.";
  fp ppf "  hardening copies vs polled masked rings); the quarantine adds only the@.";
  fp ppf "  per-handoff gate + L5 distrust copy while removing the stack from the@.";
  fp ppf "  core TCB — the two halves of the design contribute independently and@.";
  fp ppf "  compose.@."

(* --- E18: workload fingerprinting -------------------------------------------- *)

(* §2.2 defines observability as what "allows the host to infer
   information about the TEE". Make that concrete: run two application
   behaviours — a chatty workload (many small messages) and a bulk
   workload (few large ones) — through each boundary and measure how far
   apart their host-visible signatures are. A large distance means a
   passive host can fingerprint what the application is doing. *)

let tap_signature tap =
  let events = Cio_observe.Observe.events tap in
  let sizes = List.filter_map (fun e ->
      if e.Cio_observe.Observe.size > 0 then Some (float_of_int e.Cio_observe.Observe.size) else None)
      events
  in
  match sizes with
  | [] -> (0.0, 0.0, 0.0)
  | _ ->
      let arr = Array.of_list sizes in
      let mean = Cio_util.Stats.mean arr in
      let sd = Cio_util.Stats.stddev arr in
      (mean, sd, float_of_int (List.length events))

let signature_distance (m1, s1, n1) (m2, s2, n2) =
  (* Normalised per-feature relative difference, averaged. *)
  let rel a b = if a = 0.0 && b = 0.0 then 0.0 else abs_float (a -. b) /. max a b in
  (rel m1 m2 +. rel s1 s2 +. rel n1 n2) /. 3.0

let e18 ppf () =
  fp ppf "E18: workload fingerprinting by a passive host@.";
  fp ppf "  chatty = 60 x 64 B messages; bulk = 6 x 12 KiB messages@.";
  fp ppf "  %-16s %10s   (0 = indistinguishable, 1 = trivially distinguished)@."
    "config" "distance";
  List.iter
    (fun kind ->
      let chatty = C.run_echo ~seed:21L ~messages:60 ~msg_size:64 kind in
      let bulk = C.run_echo ~seed:22L ~messages:6 ~msg_size:12_288 kind in
      let d = signature_distance (tap_signature chatty.C.tap) (tap_signature bulk.C.tap) in
      fp ppf "  %-16s %10.2f@." (C.kind_name kind) d)
    C.all_kinds;
  fp ppf "  shape: syscall and raw-L2 boundaries let the host separate the two@.";
  fp ppf "  behaviours from sizes/rates alone; the tunnel's constant-size,@.";
  fp ppf "  cadence-padded channel collapses the distance — the quantitative@.";
  fp ppf "  content of §2.2's observability vector.@."

(* --- E19: storage access-pattern observability -------------------------------- *)

(* The storage twin of E18, and the reason the paper cites oblivious
   filesystems [3]: sealing protects *contents*, but the host still sees
   which blocks are touched. Two application behaviours — hot reads of
   file A vs hot reads of file B — remain perfectly distinguishable from
   the block-access trace alone. *)
let e19 ppf () =
  let open Cio_storage in
  fp ppf "E19: storage access-pattern observability (sealed contents, visible pattern)@.";
  let dev, disk = Blockdev.create ~name:"e19" ~blocks:256 () in
  let store = Dual_store.create ~dev ~key:(Bytes.make 32 'K') () in
  (match Dual_store.write_file store ~name:"file-A" (Bytes.make 20_000 'a') with
  | Ok () -> ()
  | Error e -> fp ppf "  setup failed: %s@." (Dual_store.error_to_string e));
  (match Dual_store.write_file store ~name:"file-B" (Bytes.make 20_000 'b') with
  | Ok () -> ()
  | Error e -> fp ppf "  setup failed: %s@." (Dual_store.error_to_string e));
  let trace_of name =
    Blockdev.disk_clear_log disk;
    for _ = 1 to 5 do
      ignore (Dual_store.read_file store ~name)
    done;
    List.filter_map
      (fun (op, lba) -> match op with Block_wire.Read -> Some lba | Block_wire.Write -> None)
      (Blockdev.disk_access_log disk)
  in
  let trace_a = trace_of "file-A" and trace_b = trace_of "file-B" in
  let set_of l = List.sort_uniq compare l in
  let sa = set_of trace_a and sb = set_of trace_b in
  let inter = List.length (List.filter (fun x -> List.mem x sb) sa) in
  let union = List.length (set_of (sa @ sb)) in
  let jaccard = float_of_int inter /. float_of_int (max 1 union) in
  fp ppf "  hot-A trace touches blocks %s@."
    (String.concat "," (List.map string_of_int sa));
  fp ppf "  hot-B trace touches blocks %s@."
    (String.concat "," (List.map string_of_int sb));
  fp ppf "  trace overlap (Jaccard): %.2f — a passive host tells the workloads apart@." jaccard;
  (* And yet contents and integrity are safe: corrupt the hot block. *)
  Blockdev.disk_inject disk Blockdev.Corrupt_block;
  (match Dual_store.read_file store ~name:"file-A" with
  | Error (Dual_store.Integrity _) -> fp ppf "  content attack on the hot file: fail-closed@."
  | Ok _ -> fp ppf "  content attack: MISSED@."
  | Error e -> fp ppf "  content attack: %s@." (Dual_store.error_to_string e));
  fp ppf "  rogue storage domain reads app memory: %s@."
    (match Dual_store.rogue_store_reads_app_memory store with
    | `Denied -> "denied by the compartment"
    | `Leaked -> "LEAKED");
  fp ppf "  shape: the dual boundary bounds a storage compromise to access-pattern@.";
  fp ppf "  observability — closing that residual channel needs oblivious layouts@.";
  fp ppf "  (OBLIVIATE [3]), orthogonal to interface safety.@."

(* --- E20: multi-queue scaling -------------------------------------------------- *)

(* The §2.2 performance ideal (saturate tens-of-Gbit links) via per-core
   queues. Because each queue is a complete independent safe device,
   multi-queue adds zero control plane and zero new hardening surface —
   contrast virtio's control-virtqueue steering commands. With one core
   per queue, wall time is the busiest queue's cycles. *)
let e20 ppf () =
  fp ppf "E20: multi-queue scaling of the safe interface (64 flows, 16 msgs each, 1 KiB)@.";
  fp ppf "  %-8s %14s %18s %9s@." "queues" "total cycles" "critical path" "speedup";
  let flows = 64 and per_flow = 16 in
  let baseline = ref 0.0 in
  List.iter
    (fun nq ->
      let mq =
        Cio_cionet.Multiqueue.create ~name:"e20" ~queues:nq Cio_cionet.Config.default
      in
      (* One host model per queue (the host scales with the guest). *)
      let hosts =
        List.map
          (fun d -> Cio_cionet.Host_model.create ~driver:d ~transmit:(fun _ -> ()))
          (Cio_cionet.Multiqueue.queues mq)
      in
      let payload = Bytes.make 1024 'q' in
      for round = 1 to per_flow do
        ignore round;
        for flow = 0 to flows - 1 do
          ignore (Cio_cionet.Multiqueue.transmit mq ~flow_hash:flow payload)
        done;
        List.iter Cio_cionet.Host_model.poll hosts
      done;
      let total = Cio_cionet.Multiqueue.total_cycles mq in
      let critical = Cio_cionet.Multiqueue.critical_path_cycles mq in
      if nq = 1 then baseline := float_of_int critical;
      fp ppf "  %-8d %14d %18d %8.1fx@." nq total critical
        (!baseline /. float_of_int critical))
    [ 1; 2; 4; 8 ];
  fp ppf "  shape: near-linear critical-path scaling with zero added control plane@.";
  fp ppf "  or hardening surface — fixed flow steering is just more of the same@.";
  fp ppf "  stateless interface, where virtio multiqueue adds a control virtqueue@.";
  fp ppf "  command set to harden.@."

(* --- E21: batch-depth sweep ------------------------------------------------ *)

(* §2.2's performance ideal is reached "by batching their rings": sweep
   the burst depth across positioning variants and queue counts. One cell
   echoes [rounds x depth] 1 KiB frames per queue through burst transmit,
   a host burst drain/refill, and burst receive, then reports guest
   cycles per frame (critical path) and doorbells per frame. *)
let e21_cell ~positioning ~queues ~depth =
  let cfg =
    {
      Cio_cionet.Config.default with
      Cio_cionet.Config.positioning;
      ring_slots = 128;
      use_notifications = true;
    }
  in
  let mq = Cio_cionet.Multiqueue.create ~name:"e21" ~queues cfg in
  (* Per-queue loopback host: frames the guest transmits come straight
     back on the same queue's RX ring. *)
  let hosts =
    List.map
      (fun d ->
        let self = ref None in
        let h =
          Cio_cionet.Host_model.create ~driver:d
            ~transmit:(fun f ->
              match !self with
              | Some h -> Cio_cionet.Host_model.deliver_rx h f
              | None -> ())
        in
        self := Some h;
        h)
      (Cio_cionet.Multiqueue.queues mq)
  in
  let batch = Array.make depth (Bytes.make 1024 'b') in
  let rounds = max 1 (256 / depth) in
  let frames_per_queue = rounds * depth in
  for _ = 1 to rounds do
    for q = 0 to queues - 1 do
      ignore (Cio_cionet.Multiqueue.transmit_burst mq ~flow_hash:q batch)
    done;
    List.iter Cio_cionet.Host_model.poll hosts;
    let rec drain () =
      if Cio_cionet.Multiqueue.poll_burst ~max:(queues * depth) mq <> [] then drain ()
    in
    drain ()
  done;
  let cycles_per_frame =
    float_of_int (Cio_cionet.Multiqueue.critical_path_cycles mq)
    /. float_of_int frames_per_queue
  in
  let doorbells =
    List.fold_left
      (fun acc d -> acc + Cost.count_of (Cio_cionet.Driver.guest_meter d) Cost.Notification)
      0
      (Cio_cionet.Multiqueue.queues mq)
  in
  (cycles_per_frame, float_of_int doorbells /. float_of_int (frames_per_queue * queues))

let e21 ppf () =
  fp ppf "E21: batch-depth sweep (burst ring ops + doorbell coalescing, 1 KiB echo)@.";
  let depths = [ 1; 4; 16; 64 ] in
  let variants =
    [
      ("inline", Cio_cionet.Config.Inline { data_capacity = 2048 });
      ("pool", Cio_cionet.Config.Pool { pool_slots = 256; pool_slot_size = 2048 });
      ( "indirect",
        Cio_cionet.Config.Indirect { desc_count = 256; pool_slots = 256; pool_slot_size = 2048 } );
    ]
  in
  fp ppf "  guest cycles/frame (critical path):@.";
  fp ppf "  %-10s %7s" "variant" "queues";
  List.iter (fun d -> fp ppf " %9s" (Printf.sprintf "depth=%d" d)) depths;
  fp ppf "@.";
  let inline_q1 = ref [] in
  List.iter
    (fun (name, positioning) ->
      List.iter
        (fun queues ->
          fp ppf "  %-10s %7d" name queues;
          List.iter
            (fun depth ->
              let cycles, dbpf = e21_cell ~positioning ~queues ~depth in
              if name = "inline" && queues = 1 then inline_q1 := (depth, dbpf) :: !inline_q1;
              fp ppf " %9.0f" cycles)
            depths;
          fp ppf "@.")
        [ 1; 2; 4; 8 ])
    variants;
  fp ppf "  doorbells/frame (any variant):";
  List.iter (fun (d, dbpf) -> fp ppf "  depth=%d -> %.4f" d dbpf) (List.rev !inline_q1);
  fp ppf "@.";
  fp ppf "  shape: per-frame cost falls with depth and flattens past ~16 as the@.";
  fp ppf "  fixed crossing cost is spread thin; doorbells/frame = 1/depth exactly@.";
  fp ppf "  (one stateless kick covers the whole burst).@."

(* --- E22: offered-load sweep, overload plane on vs off -------------------- *)

(* The overload plane's money shot: an open-loop generator over a
   rate-limited host, swept from half saturation to 4x. Without the
   plane the excess piles into the sealed outbox and the TX queue —
   throughput holds at the service rate but latency grows with the
   backlog and *goodput* (replies within the deadline) collapses. With
   the plane the admission controller sheds the excess before any
   sealing work, blown deadlines are shed at the crossing, and goodput
   holds near saturation with bounded p99. *)
let e22 ppf () =
  let open Cio_fault in
  fp ppf "E22: offered-load sweep, overload plane on vs off (slow host, quota=%d/poll)@."
    Loadgen.default_config.Loadgen.host_quota;
  let base = Loadgen.default_config in
  (* Admission tuned to the measured service capacity (~0.5 msg/step at
     quota 2): 50k tokens/s at a 10 us quantum is 0.5 admits/step. *)
  let plane_cfg =
    {
      Cio_overload.Plane.default_config with
      Cio_overload.Plane.admit_rate_per_sec = 50_000;
      admit_burst = 8;
      queue_limit = 64;
      deadline_budget_ns =
        Int64.mul (Int64.of_int base.Loadgen.deadline_steps) base.Loadgen.quantum_ns;
    }
  in
  let saturation = 500 in
  let rates = [ 250; 500; 1_000; 2_000 ] in
  fp ppf "  %-9s %-5s %7s %6s %6s %7s %7s %6s %8s@." "offered" "plane" "offered"
    "sent" "shed" "goodput" "p99rtt" "txq" "outboxB";
  let results = ref [] in
  List.iter
    (fun rate ->
      List.iter
        (fun on ->
          let config =
            {
              base with
              Loadgen.offered_per_mille = rate;
              overload = (if on then Some plane_cfg else None);
            }
          in
          let r = Loadgen.run ~config ~seed:7L () in
          results := ((rate, on), r) :: !results;
          fp ppf "  %-9s %-5s %7d %6d %6d %7d %7d %6d %8d@."
            (Printf.sprintf "%.2fx" (float_of_int rate /. float_of_int saturation))
            (if on then "on" else "off")
            r.Loadgen.offered r.Loadgen.sent r.Loadgen.shed r.Loadgen.timely
            r.Loadgen.p99_rtt_steps r.Loadgen.tx_backlog r.Loadgen.backlog_bytes)
        [ false; true ])
    rates;
  let get rate on = List.assoc (rate, on) !results in
  let sat_on = get saturation true in
  let over_on = get 2_000 true in
  let over_off = get 2_000 false in
  fp ppf "  shape: plane ON holds goodput at 4x offered (%d vs %d at 1x, within 20%%)@."
    over_on.Loadgen.timely sat_on.Loadgen.timely;
  fp ppf "  with bounded p99 (%d steps); plane OFF collapses — goodput %d, p99 %d,@."
    over_on.Loadgen.p99_rtt_steps over_off.Loadgen.timely over_off.Loadgen.p99_rtt_steps;
  fp ppf "  %d frames / %d sealed bytes stranded in queues at the end of the run.@."
    over_off.Loadgen.tx_backlog over_off.Loadgen.backlog_bytes

(* --- registry -------------------------------------------------------------- *)

let all =
  [
    ("fig2", "Linux /net remote CVEs per year", fig2);
    ("fig3", "NetVSC hardening-commit distribution", fig3);
    ("fig4", "VirtIO hardening-commit distribution", fig4);
    ("fig5", "security vs performance design space", fig5);
    ("e1", "data positioning variants", e1);
    ("e2", "copy vs revocation crossover", e2);
    ("e3", "hardening tax at the transport", e3);
    ("e4", "attack resilience matrix", e4);
    ("e5", "observability by boundary", e5);
    ("e6", "TCB by boundary", e6);
    ("e7", "zero-copy send / recv-copy ablation", e7);
    ("e8", "gate vs two-TEE L5 boundary", e8);
    ("e9", "storage generalisation", e9);
    ("e10", "direct device assignment", e10);
    ("e11", "polling vs notifications", e11);
    ("e12", "live migration by hot swap", e12);
    ("e13", "L2 size padding ablation", e13);
    ("e14", "cost-model sensitivity", e14);
    ("e15", "split vs packed virtqueue hardening", e15);
    ("e16", "fault campaigns / self-healing datapath", e16);
    ("e17", "decomposition: transport x boundary", e17);
    ("e18", "workload fingerprinting by the host", e18);
    ("e19", "storage access-pattern observability", e19);
    ("e20", "multi-queue scaling", e20);
    ("e21", "batch-depth sweep / doorbell coalescing", e21);
    ("e22", "offered-load sweep / overload plane on vs off", e22);
  ]

let find id = List.find_opt (fun (i, _, _) -> i = id) all

let scoped id f ppf = Trace.with_span ~cat:Kind_.experiment id (fun () -> f ppf ())

let run_one ppf id =
  match find id with
  | Some (_, _, f) ->
      scoped id f ppf;
      true
  | None -> false

let run_all ppf () =
  List.iter
    (fun (id, title, f) ->
      fp ppf "=== %s: %s ===@." id title;
      scoped id f ppf;
      fp ppf "@.")
    all

(* Regression tests for the reproduced result *shapes*: every claim in
   EXPERIMENTS.md that is an ordering, crossover or dominance is pinned
   here so that a refactor that silently breaks a headline result fails
   the suite, not just changes a table. *)

open Cio_util

(* E1: inline <= pool < indirect at every size. *)
let test_e1_positioning_order () =
  let cost positioning size =
    let cfg = { Cio_cionet.Config.default with Cio_cionet.Config.positioning } in
    let drv = Cio_cionet.Driver.create ~name:"shape-e1" cfg in
    let host = Cio_cionet.Host_model.create ~driver:drv ~transmit:(fun _ -> ()) in
    let payload = Bytes.make size 's' in
    let m = Cio_cionet.Driver.guest_meter drv in
    for _ = 1 to 16 do
      ignore (Cio_cionet.Driver.transmit drv payload);
      Cio_cionet.Host_model.poll host;
      Cio_cionet.Host_model.deliver_rx host (Bytes.copy payload);
      Cio_cionet.Host_model.poll host;
      ignore (Cio_cionet.Driver.poll drv)
    done;
    Cost.total m
  in
  List.iter
    (fun size ->
      let inline = cost (Cio_cionet.Config.Inline { data_capacity = 2048 }) size in
      let pool = cost (Cio_cionet.Config.Pool { pool_slots = 128; pool_slot_size = 2048 }) size in
      let indirect =
        cost (Cio_cionet.Config.Indirect { desc_count = 128; pool_slots = 128; pool_slot_size = 2048 }) size
      in
      Alcotest.(check bool) (Printf.sprintf "inline <= pool @ %d" size) true (inline <= pool);
      Alcotest.(check bool) (Printf.sprintf "pool < indirect @ %d" size) true (pool < indirect))
    [ 64; 1024 ]

(* E2: copy wins small, revocation wins large — the crossover exists. *)
let test_e2_crossover_exists () =
  let rx_cost strategy size =
    let capacity = max 4096 (Bitops.next_power_of_two size) in
    let cfg =
      {
        Cio_cionet.Config.default with
        Cio_cionet.Config.positioning = Cio_cionet.Config.Inline { data_capacity = capacity };
        rx_strategy = strategy;
        ring_slots = 16;
      }
    in
    let drv = Cio_cionet.Driver.create ~name:"shape-e2" cfg in
    let host = Cio_cionet.Host_model.create ~driver:drv ~transmit:(fun _ -> ()) in
    let payload = Bytes.make size 'r' in
    let m = Cio_cionet.Driver.guest_meter drv in
    for _ = 1 to 8 do
      Cio_cionet.Host_model.deliver_rx host (Bytes.copy payload);
      Cio_cionet.Host_model.poll host;
      ignore (Cio_cionet.Driver.poll drv)
    done;
    Cost.total m
  in
  Alcotest.(check bool) "copy wins at 1 KiB" true
    (rx_cost Cio_cionet.Config.Copy_in 1024 < rx_cost Cio_cionet.Config.Revoke 1024);
  Alcotest.(check bool) "revocation wins at 64 KiB" true
    (rx_cost Cio_cionet.Config.Revoke 65536 < rx_cost Cio_cionet.Config.Copy_in 65536)

(* E3: cionet < virtio-unhardened < virtio-hardened per frame pair. *)
let test_e3_transport_order () =
  let virtio hardened =
    let transport = Cio_virtio.Transport.create ~name:"shape-e3" () in
    let dev =
      Cio_virtio.Device.create ~rx:(Cio_virtio.Transport.rx transport)
        ~tx:(Cio_virtio.Transport.tx transport) ~transmit:(fun _ -> ())
    in
    let m = Cio_mem.Region.meter (Cio_virtio.Transport.region transport) in
    let payload = Bytes.make 1500 'f' in
    (if hardened then begin
       let drv = Cio_virtio.Driver_hardened.create transport in
       for _ = 1 to 16 do
         ignore (Cio_virtio.Driver_hardened.transmit drv payload);
         Cio_virtio.Device.deliver_rx dev payload;
         Cio_virtio.Device.poll dev;
         ignore (Cio_virtio.Driver_hardened.poll drv)
       done
     end
     else begin
       let drv = Cio_virtio.Driver_unhardened.create transport in
       for _ = 1 to 16 do
         ignore (Cio_virtio.Driver_unhardened.transmit drv payload);
         Cio_virtio.Device.deliver_rx dev payload;
         Cio_virtio.Device.poll dev;
         ignore (Cio_virtio.Driver_unhardened.poll drv)
       done
     end);
    Cost.total m
  in
  let cionet =
    let drv = Cio_cionet.Driver.create ~name:"shape-e3c" Cio_cionet.Config.default in
    let host = Cio_cionet.Host_model.create ~driver:drv ~transmit:(fun _ -> ()) in
    let payload = Bytes.make 1500 'f' in
    for _ = 1 to 16 do
      ignore (Cio_cionet.Driver.transmit drv payload);
      Cio_cionet.Host_model.poll host;
      Cio_cionet.Host_model.deliver_rx host (Bytes.copy payload);
      Cio_cionet.Host_model.poll host;
      ignore (Cio_cionet.Driver.poll drv)
    done;
    Cost.total (Cio_cionet.Driver.guest_meter drv)
  in
  let unhardened = virtio false and hardened = virtio true in
  Alcotest.(check bool) "cionet < unhardened" true (cionet < unhardened);
  Alcotest.(check bool) "unhardened < hardened" true (unhardened < hardened)

(* E8: TEE switch at least an order of magnitude above the gate. *)
let test_e8_boundary_gap () =
  let open Cio_compartment in
  let cost crossing =
    let w = Compartment.create ~crossing () in
    let a = Compartment.add_domain w ~name:"a" and b = Compartment.add_domain w ~name:"b" in
    Compartment.call w ~caller:a ~callee:b ignore;
    Cost.cycles_of (Compartment.meter w) Cost.Gate
  in
  Alcotest.(check bool) "switch >= 10x gate" true
    (cost Compartment.Tee_switch >= 10 * cost Compartment.Gate)

(* E11: notifications strictly dominate polling per message. *)
let test_e11_polling_cheaper () =
  let run use_notifications =
    let cfg = { Cio_cionet.Config.default with Cio_cionet.Config.use_notifications } in
    let drv = Cio_cionet.Driver.create ~name:"shape-e11" cfg in
    let host = Cio_cionet.Host_model.create ~driver:drv ~transmit:(fun _ -> ()) in
    let payload = Bytes.make 1024 'n' in
    for _ = 1 to 16 do
      ignore (Cio_cionet.Driver.transmit drv payload);
      Cio_cionet.Host_model.poll host;
      Cio_cionet.Host_model.deliver_rx host (Bytes.copy payload);
      Cio_cionet.Host_model.poll host;
      ignore (Cio_cionet.Driver.poll drv)
    done;
    Cost.total (Cio_cionet.Driver.guest_meter drv)
  in
  Alcotest.(check bool) "polling cheaper" true (run false < run true)

(* E20: critical path halves (at least 1.9x) from 1 to 2 queues. *)
let test_e20_scaling () =
  let critical nq =
    let mq = Cio_cionet.Multiqueue.create ~name:"shape-e20" ~queues:nq Cio_cionet.Config.default in
    let hosts =
      List.map
        (fun d -> Cio_cionet.Host_model.create ~driver:d ~transmit:(fun _ -> ()))
        (Cio_cionet.Multiqueue.queues mq)
    in
    for round = 1 to 8 do
      ignore round;
      for flow = 0 to 15 do
        ignore (Cio_cionet.Multiqueue.transmit mq ~flow_hash:flow (Bytes.make 1024 'q'))
      done;
      List.iter Cio_cionet.Host_model.poll hosts
    done;
    Cio_cionet.Multiqueue.critical_path_cycles mq
  in
  let one = critical 1 and two = critical 2 in
  Alcotest.(check bool) "2 queues >= 1.9x faster critical path" true
    (float_of_int one /. float_of_int two >= 1.9)

(* E21: a depth-16 burst costs the guest fewer cycles per frame than the
   single-slot round trip, for every positioning. The same two datapaths
   as bench's cionet-<variant> and cionet-burst-d16-<variant> micros, on
   the cycle meter instead of the wall clock. *)
let test_e21_burst_amortizes () =
  let module D = Cio_cionet.Driver in
  let module H = Cio_cionet.Host_model in
  let depth = 16 and rounds = 8 in
  let per_frame positioning ~burst =
    let cfg = { Cio_cionet.Config.default with Cio_cionet.Config.positioning; ring_slots = 128 } in
    let drv = D.create ~name:"shape-e21" cfg in
    let host = H.create ~driver:drv ~transmit:(fun _ -> ()) in
    let payload = Bytes.make 1024 'b' in
    let batch = Array.make depth payload in
    for _ = 1 to rounds do
      if burst then begin
        ignore (D.transmit_burst drv batch);
        H.poll host;
        Array.iter (fun f -> H.deliver_rx host (Bytes.copy f)) batch;
        H.poll host;
        List.iter (D.recycle drv) (D.poll_burst ~max:depth drv)
      end
      else
        for _ = 1 to depth do
          ignore (D.transmit drv payload);
          H.poll host;
          H.deliver_rx host (Bytes.copy payload);
          H.poll host;
          Option.iter (D.recycle drv) (D.poll drv)
        done
    done;
    float_of_int (Cost.total (D.guest_meter drv)) /. float_of_int (rounds * depth)
  in
  List.iter
    (fun (name, positioning) ->
      let single = per_frame positioning ~burst:false and burst = per_frame positioning ~burst:true in
      Alcotest.(check bool)
        (Printf.sprintf "%s: burst %.1f < single-slot %.1f cycles/frame" name burst single)
        true (burst < single))
    [
      ("inline", Cio_cionet.Config.Inline { data_capacity = 4096 });
      ("pool", Cio_cionet.Config.Pool { pool_slots = 256; pool_slot_size = 2048 });
      ( "indirect",
        Cio_cionet.Config.Indirect { desc_count = 256; pool_slots = 256; pool_slot_size = 2048 } );
    ]

(* F3/F4: dataset invariants the figures hinge on. *)
let test_figure_data_shapes () =
  let open Cio_data in
  Alcotest.(check bool) "fig2 trend non-negative" true (Cve_net.trend_slope () >= 0.0);
  Alcotest.(check string) "fig3 dominant is checks" "add checks"
    (Hardening.category_name (Hardening.dominant_category Hardening.Netvsc));
  Alcotest.(check bool) "fig4 amend rate double-digit" true
    (Hardening.amend_rate Hardening.Virtio >= 0.10)

let suite =
  [
    Alcotest.test_case "E1 shape: positioning order" `Quick test_e1_positioning_order;
    Alcotest.test_case "E2 shape: crossover exists" `Quick test_e2_crossover_exists;
    Alcotest.test_case "E3 shape: transport order" `Quick test_e3_transport_order;
    Alcotest.test_case "E8 shape: boundary gap" `Quick test_e8_boundary_gap;
    Alcotest.test_case "E11 shape: polling cheaper" `Quick test_e11_polling_cheaper;
    Alcotest.test_case "E20 shape: multi-queue scaling" `Quick test_e20_scaling;
    Alcotest.test_case "E21 shape: burst amortizes" `Quick test_e21_burst_amortizes;
    Alcotest.test_case "F2-F4 shape: dataset invariants" `Quick test_figure_data_shapes;
  ]

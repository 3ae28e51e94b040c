(* Extension-feature tests: hot swap (E12), frame padding (E13), and
   experiment-registry smoke coverage. *)

open Cio_cionet
open Cio_util

(* --- hot swap ----------------------------------------------------------- *)

let make_pair () =
  let drv = Driver.create ~name:"hs" Config.default in
  let sent = ref [] in
  let host = Host_model.create ~driver:drv ~transmit:(fun f -> sent := f :: !sent) in
  (drv, host, sent)

let test_hot_swap_revokes_old_region () =
  let drv, _, _ = make_pair () in
  let old_region = Driver.region drv in
  Driver.hot_swap drv;
  (* The entire old region is gone from the host's view. *)
  (match Cio_mem.Region.host_read old_region ~off:0 ~len:16 with
  | _ -> Alcotest.fail "old region must be revoked wholesale"
  | exception Cio_mem.Region.Fault _ -> ());
  Alcotest.(check int) "generation bumped" 1 (Driver.generation drv)

(* The host serves whatever instance the driver has mapped: a frame it
   was handed before the swap lands on the new rings, with no call from
   anyone but the driver. *)
let test_hot_swap_host_follows_driver () =
  let drv, host, _ = make_pair () in
  Host_model.deliver_rx host (Bytes.of_string "late");
  Driver.hot_swap drv;
  Host_model.poll host;
  Alcotest.(check int) "no host fault" 0 (Host_model.stats host).Host_model.faults;
  match Driver.poll drv with
  | Some f -> Helpers.check_bytes "late frame on the new rings" (Bytes.of_string "late") f
  | None -> Alcotest.fail "late frame lost across the swap"

let test_hot_swap_traffic_resumes () =
  let drv, host, sent = make_pair () in
  ignore (Driver.transmit drv (Bytes.of_string "before"));
  Host_model.poll host;
  Alcotest.(check int) "pre-swap tx" 1 (List.length !sent);
  Driver.hot_swap drv;
  ignore (Driver.transmit drv (Bytes.of_string "after"));
  Host_model.poll host;
  Alcotest.(check int) "post-swap tx" 2 (List.length !sent);
  Helpers.check_bytes "post-swap content" (Bytes.of_string "after") (List.hd !sent);
  Host_model.deliver_rx host (Bytes.of_string "rx-after");
  Host_model.poll host;
  (match Driver.poll drv with
  | Some f -> Helpers.check_bytes "rx after swap" (Bytes.of_string "rx-after") f
  | None -> Alcotest.fail "rx lost after swap")

let test_hot_swap_repeated () =
  let drv, host, sent = make_pair () in
  for g = 1 to 5 do
    Driver.hot_swap drv;
    Alcotest.(check int) "generation" g (Driver.generation drv);
    ignore (Driver.transmit drv (Bytes.of_string (Printf.sprintf "gen-%d" g)));
    Host_model.poll host
  done;
  Alcotest.(check int) "one frame per generation" 5 (List.length !sent)

let test_hot_swap_meter_continuity () =
  let drv, _, _ = make_pair () in
  let m = Driver.guest_meter drv in
  ignore (Driver.transmit drv (Bytes.of_string "x"));
  let before = Cost.total m in
  Driver.hot_swap drv;
  Alcotest.(check bool) "meter survives swap (revocation charged on it)" true
    (Cost.total m > before)

(* --- frame padding ------------------------------------------------------- *)

let test_padding_uniform_sizes () =
  let cfg = { Config.default with Config.pad_frames = true } in
  let drv = Driver.create ~name:"pad" cfg in
  let sizes = ref [] in
  let host = Host_model.create ~driver:drv ~transmit:(fun f -> sizes := Bytes.length f :: !sizes) in
  List.iter
    (fun n -> ignore (Driver.transmit drv (Bytes.make n 'x')))
    [ 40; 333; 1000; 1514 ];
  Host_model.poll host;
  Alcotest.(check (list int)) "all frames MTU-sized" [ 1514; 1514; 1514; 1514 ] !sizes

let test_padding_preserves_ip_payload () =
  (* End-to-end over two stacks: the padded frames must still parse (IPv4
     total length strips the padding). *)
  let cfg = { Config.default with Config.pad_frames = true; Config.mac = Helpers.mac_a } in
  let drv = Driver.create ~name:"pad2" cfg in
  let peer_rx = Queue.create () in
  let host = Host_model.create ~driver:drv ~transmit:(fun f -> Queue.add f peer_rx) in
  let clock = ref 0L in
  let now () = !clock in
  let rng = Rng.create 21L in
  let stack_a =
    Cio_tcpip.Stack.create ~netif:(Driver.to_netif drv) ~ip:Helpers.ip_a
      ~neighbors:[ (Helpers.ip_b, Helpers.mac_b) ] ~now ~rng:(Rng.split rng) ()
  in
  let b_out = Queue.create () in
  let nif_b =
    {
      Cio_tcpip.Netif.mac = Helpers.mac_b;
      mtu = 1500;
      transmit = (fun f -> Queue.add f b_out);
      poll = (fun () -> if Queue.is_empty peer_rx then None else Some (Queue.take peer_rx));
    }
  in
  let stack_b =
    Cio_tcpip.Stack.create ~netif:nif_b ~ip:Helpers.ip_b
      ~neighbors:[ (Helpers.ip_a, Helpers.mac_a) ] ~now ~rng:(Rng.split rng) ()
  in
  (* A TCP exchange: the SYN, the handshake ACK and the data segment all
     leave through the padding driver. *)
  let module Tcp = Cio_tcpip.Tcp in
  let tcp_a = Cio_tcpip.Stack.tcp stack_a and tcp_b = Cio_tcpip.Stack.tcp stack_b in
  let listener = Tcp.listen tcp_b ~port:9 in
  let client = Tcp.connect tcp_a ~dst:Helpers.ip_b ~dst_port:9 () in
  let payload = Bytes.of_string "small payload" in
  let sent = ref false and server = ref None in
  let got = Buffer.create 16 in
  for _ = 1 to 20 do
    if (not !sent) && Tcp.conn_state client = Tcp.Established then begin
      sent := Tcp.send tcp_a client payload = Bytes.length payload;
      Tcp.flush tcp_a client
    end;
    Host_model.poll host;
    Cio_tcpip.Stack.poll stack_b;
    Queue.iter (Host_model.deliver_rx host) b_out;
    Queue.clear b_out;
    Host_model.poll host;
    Cio_tcpip.Stack.poll stack_a;
    clock := Int64.add !clock 1_000_000L;
    if !server = None then server := Tcp.accept listener;
    Option.iter (fun conn -> Buffer.add_bytes got (Tcp.recv tcp_b conn ~max:64)) !server
  done;
  Alcotest.(check int) "no frame dropped" 0
    (Cio_tcpip.Stack.counters stack_b).Cio_tcpip.Stack.dropped;
  Helpers.check_bytes "padding stripped" payload (Buffer.to_bytes got)

(* --- multi-queue ----------------------------------------------------------- *)

let test_multiqueue_flow_pinning () =
  let mq = Multiqueue.create ~name:"mq" ~queues:4 Config.default in
  for flow = 0 to 31 do
    let q = Multiqueue.queue_for mq ~flow_hash:flow in
    Alcotest.(check int) "stable steering" q (Multiqueue.queue_for mq ~flow_hash:flow);
    Alcotest.(check bool) "in range" true (q >= 0 && q < 4)
  done

let test_multiqueue_roundtrip_all_queues () =
  let mq = Multiqueue.create ~name:"mq2" ~queues:4 Config.default in
  let hosts =
    List.map (fun d -> Host_model.create ~driver:d ~transmit:(fun _ -> ())) (Multiqueue.queues mq)
  in
  (* Deliver one frame into every queue's RX and drain them all through
     the round-robin burst poll. *)
  List.iteri
    (fun i host -> Host_model.deliver_rx host (Bytes.of_string (Printf.sprintf "rx-q%d" i)))
    hosts;
  for flow = 0 to 7 do
    Alcotest.(check bool) "tx accepted" true
      (Multiqueue.transmit mq ~flow_hash:flow (Bytes.of_string (Printf.sprintf "tx-%d" flow)))
  done;
  List.iter Host_model.poll hosts;
  let received = Multiqueue.poll_burst ~max:64 mq in
  Alcotest.(check int) "all queue deliveries drained" 4 (List.length received);
  Alcotest.(check (list string)) "one frame from each queue, round-robin"
    [ "rx-q0"; "rx-q1"; "rx-q2"; "rx-q3" ]
    (List.map Bytes.to_string received)

let test_multiqueue_per_flow_ordering () =
  let mq = Multiqueue.create ~name:"mq3" ~queues:2 Config.default in
  let forwarded = ref [] in
  let hosts =
    List.map
      (fun d ->
        Host_model.create ~driver:d ~transmit:(fun f -> forwarded := Bytes.to_string f :: !forwarded))
      (Multiqueue.queues mq)
  in
  (* Interleave two flows; within each flow order must be preserved. *)
  for i = 1 to 10 do
    ignore (Multiqueue.transmit mq ~flow_hash:0 (Bytes.of_string (Printf.sprintf "a%02d" i)));
    ignore (Multiqueue.transmit mq ~flow_hash:1 (Bytes.of_string (Printf.sprintf "b%02d" i)));
    List.iter Host_model.poll hosts
  done;
  let seq prefix =
    List.rev !forwarded |> List.filter (fun s -> String.length s > 0 && s.[0] = prefix)
  in
  Alcotest.(check (list string)) "flow a ordered"
    (List.init 10 (fun i -> Printf.sprintf "a%02d" (i + 1)))
    (seq 'a');
  Alcotest.(check (list string)) "flow b ordered"
    (List.init 10 (fun i -> Printf.sprintf "b%02d" (i + 1)))
    (seq 'b')

let test_multiqueue_critical_path () =
  let mq = Multiqueue.create ~name:"mq4" ~queues:4 Config.default in
  let hosts =
    List.map (fun d -> Host_model.create ~driver:d ~transmit:(fun _ -> ())) (Multiqueue.queues mq)
  in
  for flow = 0 to 15 do
    ignore (Multiqueue.transmit mq ~flow_hash:flow (Bytes.make 512 'x'))
  done;
  List.iter Host_model.poll hosts;
  Alcotest.(check bool) "critical path < total" true
    (Multiqueue.critical_path_cycles mq < Multiqueue.total_cycles mq);
  Alcotest.(check bool) "roughly a quarter" true
    (Multiqueue.critical_path_cycles mq * 3 < Multiqueue.total_cycles mq)

(* --- experiment registry smoke ------------------------------------------- *)

let test_every_experiment_runs () =
  Cio_tcb.Tcb.set_repo_root (Helpers.repo_root ());
  List.iter
    (fun (id, _, f) ->
      (* Skip the slowest end-to-end sweeps here; they run in bench and in
         the dedicated core tests. *)
      if not (List.mem id [ "fig5"; "e5"; "e12"; "e14"; "e16"; "e18" ]) then begin
        let buf = Buffer.create 4096 in
        let ppf = Format.formatter_of_buffer buf in
        f ppf ();
        Format.pp_print_flush ppf ();
        Alcotest.(check bool) (id ^ " produces output") true (Buffer.length buf > 100)
      end)
    Cio_experiments.Experiments.all

let test_experiment_registry_complete () =
  let ids = List.map (fun (id, _, _) -> id) Cio_experiments.Experiments.all in
  List.iter
    (fun required ->
      Alcotest.(check bool) (required ^ " present") true (List.mem required ids))
    [ "fig2"; "fig3"; "fig4"; "fig5"; "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9";
      "e10"; "e11"; "e12"; "e13"; "e14"; "e15"; "e16"; "e17"; "e18"; "e19"; "e20" ];
  Alcotest.(check bool) "unknown id rejected" true
    (Cio_experiments.Experiments.find "e999" = None)

let suite =
  [
    Alcotest.test_case "hot swap: old region revoked" `Quick test_hot_swap_revokes_old_region;
    Alcotest.test_case "hot swap: host follows the driver" `Quick test_hot_swap_host_follows_driver;
    Alcotest.test_case "hot swap: traffic resumes" `Quick test_hot_swap_traffic_resumes;
    Alcotest.test_case "hot swap: repeated generations" `Quick test_hot_swap_repeated;
    Alcotest.test_case "hot swap: meter continuity" `Quick test_hot_swap_meter_continuity;
    Alcotest.test_case "padding: uniform wire sizes" `Quick test_padding_uniform_sizes;
    Alcotest.test_case "padding: transparent to IP" `Quick test_padding_preserves_ip_payload;
    Alcotest.test_case "multiqueue: stable flow pinning" `Quick test_multiqueue_flow_pinning;
    Alcotest.test_case "multiqueue: roundtrip all queues" `Quick test_multiqueue_roundtrip_all_queues;
    Alcotest.test_case "multiqueue: per-flow ordering" `Quick test_multiqueue_per_flow_ordering;
    Alcotest.test_case "multiqueue: critical path" `Quick test_multiqueue_critical_path;
    Alcotest.test_case "experiments: all runnable" `Slow test_every_experiment_runs;
    Alcotest.test_case "experiments: registry complete" `Quick test_experiment_registry_complete;
  ]

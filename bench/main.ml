(* Benchmark harness.

   Two parts:

   1. The experiment tables — one section per paper figure (F2-F5) and
      per §3 exploration (E1-E11), printing the rows/series the figure
      reports (simulated-metric results; see EXPERIMENTS.md for the
      paper-vs-measured comparison). This is what `bench/main.exe` is for.

   2. Bechamel micro-benchmarks — one Test.make per experiment datapath,
      measuring this implementation's real wall-clock time for the same
      operations (ring ops, driver pairs, record protection, crypto,
      compartment calls, end-to-end echoes). These validate that the
      simulator itself is fast enough to be used as a substrate.

   Usage:
     bench/main.exe                 # tables + micro-benchmarks
     bench/main.exe tables          # tables only
     bench/main.exe micro           # micro-benchmarks only
     bench/main.exe fig5 e2 ...     # selected tables only

   Flags (combine with any mode):
     --json FILE    also write machine-readable results (experiment text,
                    micro ns/run, telemetry metrics snapshot) to FILE
     --smoke        restrict tables to a fast subset (CI)
*)

open Bechamel
open Toolkit

(* --- part 2: Bechamel micro-benchmarks ------------------------------- *)

let test_ring_roundtrip positioning name =
  let cfg = { Cio_cionet.Config.default with Cio_cionet.Config.positioning } in
  let drv = Cio_cionet.Driver.create ~name:("bench-" ^ name) cfg in
  let host = Cio_cionet.Host_model.create ~driver:drv ~transmit:(fun _ -> ()) in
  let payload = Bytes.make 1024 'b' in
  Test.make ~name:("cionet-" ^ name)
    (Staged.stage (fun () ->
         ignore (Cio_cionet.Driver.transmit drv payload);
         Cio_cionet.Host_model.poll host;
         Cio_cionet.Host_model.deliver_rx host (Bytes.copy payload);
         Cio_cionet.Host_model.poll host;
         ignore (Cio_cionet.Driver.poll drv)))

(* Burst datapath: one run moves [depth] frames end to end (burst
   transmit -> host burst drain/refill -> burst receive, buffers
   recycled), so ns/run ÷ depth is comparable with the single-slot
   round-trip above. *)
let test_ring_burst positioning name ~depth =
  let cfg =
    { Cio_cionet.Config.default with Cio_cionet.Config.positioning; ring_slots = 128 }
  in
  let drv = Cio_cionet.Driver.create ~name:(Printf.sprintf "bench-burst-d%d-%s" depth name) cfg in
  let host = Cio_cionet.Host_model.create ~driver:drv ~transmit:(fun _ -> ()) in
  let batch = Array.make depth (Bytes.make 1024 'b') in
  Test.make ~name:(Printf.sprintf "cionet-burst-d%d-%s" depth name)
    (Staged.stage (fun () ->
         ignore (Cio_cionet.Driver.transmit_burst drv batch);
         Cio_cionet.Host_model.poll host;
         Array.iter (fun f -> Cio_cionet.Host_model.deliver_rx host (Bytes.copy f)) batch;
         Cio_cionet.Host_model.poll host;
         List.iter (Cio_cionet.Driver.recycle drv) (Cio_cionet.Driver.poll_burst ~max:depth drv)))

let test_cionet_revoke () =
  let cfg = { Cio_cionet.Config.default with Cio_cionet.Config.rx_strategy = Cio_cionet.Config.Revoke } in
  let drv = Cio_cionet.Driver.create ~name:"bench-revoke" cfg in
  let host = Cio_cionet.Host_model.create ~driver:drv ~transmit:(fun _ -> ()) in
  let payload = Bytes.make 4096 'r' in
  Test.make ~name:"cionet-rx-revoke"
    (Staged.stage (fun () ->
         Cio_cionet.Host_model.deliver_rx host (Bytes.copy payload);
         Cio_cionet.Host_model.poll host;
         ignore (Cio_cionet.Driver.poll drv)))

let test_virtio ~hardened name =
  let transport = Cio_virtio.Transport.create ~name:("bench-" ^ name) () in
  let dev =
    Cio_virtio.Device.create ~rx:(Cio_virtio.Transport.rx transport)
      ~tx:(Cio_virtio.Transport.tx transport) ~transmit:(fun _ -> ())
  in
  let payload = Bytes.make 1024 'v' in
  if hardened then begin
    let drv = Cio_virtio.Driver_hardened.create transport in
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (Cio_virtio.Driver_hardened.transmit drv payload);
           Cio_virtio.Device.deliver_rx dev payload;
           Cio_virtio.Device.poll dev;
           ignore (Cio_virtio.Driver_hardened.poll drv)))
  end
  else begin
    let drv = Cio_virtio.Driver_unhardened.create transport in
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (Cio_virtio.Driver_unhardened.transmit drv payload);
           Cio_virtio.Device.deliver_rx dev payload;
           Cio_virtio.Device.poll dev;
           ignore (Cio_virtio.Driver_unhardened.poll drv)))
  end

let test_tls_record () =
  let rng = Cio_util.Rng.create 1L in
  let psk = Bytes.make 32 'p' in
  let c = Cio_tls.Session.create ~role:Cio_tls.Session.Client ~psk ~psk_id:"b" ~rng () in
  let s = Cio_tls.Session.create ~role:Cio_tls.Session.Server ~psk ~psk_id:"b" ~rng () in
  let cat l = List.fold_left Bytes.cat Bytes.empty l in
  let inbox = Cio_util.Byteq.create 2048 in
  let feed session b =
    ignore (Cio_tls.Session.feed_into session b ~off:0 ~len:(Bytes.length b) inbox);
    cat (Cio_tls.Session.take_flights session)
  in
  let f1 = match Cio_tls.Session.initiate c with Ok o -> cat o | Error _ -> assert false in
  ignore (feed s (feed c (feed s f1)));
  (* The datapath's own record path: sealed onto a queue, opened from it
     in place. *)
  let payload = Bytes.make 1024 't' and q = Cio_util.Byteq.create 2048 in
  Test.make ~name:"tls-seal-open-1KiB"
    (Staged.stage (fun () ->
         match Cio_tls.Session.send_data_into c payload ~off:0 ~len:1024 q with
         | Ok () ->
             let len = Cio_util.Byteq.length q in
             ignore
               (Cio_tls.Session.feed_into s (Cio_util.Byteq.storage q) ~off:(Cio_util.Byteq.front q)
                  ~len inbox);
             Cio_util.Byteq.drop q len;
             Cio_util.Byteq.drop inbox (Cio_util.Byteq.length inbox)
         | Error _ -> assert false))

let test_crypto_primitives () =
  let data = Bytes.make 4096 'c' in
  let key = Bytes.make 32 'k' and nonce = Bytes.make 12 'n' in
  [
    Test.make ~name:"sha256-4KiB" (Staged.stage (fun () -> ignore (Cio_crypto.Sha256.digest_bytes data)));
    Test.make ~name:"aead-seal-4KiB"
      (Staged.stage (fun () -> ignore (Cio_crypto.Aead.seal ~key ~nonce ~aad:Bytes.empty data)));
    (* A small record: the fixed per-call work (one-time key, length block,
       tag) dominates. Sealed into one reused buffer, as records are. *)
    (let wire = Bytes.create (64 + Cio_crypto.Aead.tag_len) in
     Test.make ~name:"aead-seal-64B"
       (Staged.stage (fun () ->
            Cio_crypto.Aead.seal_into ~key ~nonce ~aad:Bytes.empty data ~src_off:0 ~len:64 wire
              ~dst_off:0)));
    (* One full-MSS TCP segment's Internet checksum. *)
    Test.make ~name:"checksum-1460B"
      (Staged.stage (fun () -> ignore (Cio_frame.Checksum.compute data ~pos:0 ~len:1460)));
  ]

let test_packed ~hardened name =
  let tr = Cio_virtio.Packed.create_transport ~name:("bench-" ^ name) in
  let dev = Cio_virtio.Packed.create_device ~transport:tr ~transmit:(fun _ -> ()) in
  let drv = Cio_virtio.Packed.create_driver ~hardened tr in
  let payload = Bytes.make 1024 'p' in
  Test.make ~name
    (Staged.stage (fun () ->
         ignore (Cio_virtio.Packed.driver_transmit drv payload);
         Cio_virtio.Packed.device_deliver_rx dev payload;
         Cio_virtio.Packed.device_poll dev;
         ignore (Cio_virtio.Packed.driver_poll drv)))

(* One run = one boundary admission decision (token bucket + breaker +
   deadline stamp), on a warm bucket: the cost every admitted send now
   pays at the Dual/compartment boundary. *)
let test_overload_admission () =
  let clock = ref 0L in
  let plane =
    Cio_overload.Plane.create ~rng:(Cio_util.Rng.create 11L) ~now:(fun () -> !clock) ()
  in
  Test.make ~name:"cionet-overload-admission"
    (Staged.stage (fun () ->
         (* 1µs per call keeps the bucket refilled at the default
            100k/s rate, so the steady-state admit path is measured. *)
         clock := Int64.add !clock 1_000L;
         ignore (Cio_overload.Plane.admit plane Cio_overload.Admission.Interactive)))

let test_compartment_call () =
  let open Cio_compartment in
  let w = Compartment.create ~crossing:Compartment.Gate () in
  let a = Compartment.add_domain w ~name:"a" and b = Compartment.add_domain w ~name:"b" in
  Test.make ~name:"compartment-gate-call"
    (Staged.stage (fun () -> Compartment.call w ~caller:a ~callee:b ignore))

let test_echo_configuration kind =
  Test.make
    ~name:("echo-" ^ Cio_core.Configurations.kind_name kind)
    (Staged.stage (fun () ->
         ignore (Cio_core.Configurations.run_echo ~messages:5 ~msg_size:512 kind)))

let test_storage () =
  let dev, _ = Cio_storage.Blockdev.create ~name:"bench-store" ~blocks:256 () in
  let store = Cio_storage.Dual_store.create ~dev ~key:(Bytes.make 32 'K') () in
  let content = Bytes.make 8192 's' in
  let counter = ref 0 in
  Test.make ~name:"dual-store-write-read-8KiB"
    (Staged.stage (fun () ->
         incr counter;
         let name = Printf.sprintf "f%d" (!counter mod 8) in
         ignore (Cio_storage.Dual_store.write_file store ~name content);
         ignore (Cio_storage.Dual_store.read_file store ~name)))

let test_dda () =
  let rng = Cio_util.Rng.create 3L in
  match Cio_dda.Dda.establish ~rng () with
  | Error _ -> Test.make ~name:"dda-transfer-4KiB" (Staged.stage (fun () -> ()))
  | Ok t ->
      let payload = Bytes.make 4096 'd' in
      Test.make ~name:"dda-transfer-4KiB"
        (Staged.stage (fun () -> ignore (Cio_dda.Dda.transfer t payload)))

let micro_tests ?(smoke = false) () =
  (* The cionet subset is the perf trajectory CI tracks against
     BENCH_baseline.json; --smoke runs only these. *)
  let cionet =
    [
      test_ring_roundtrip (Cio_cionet.Config.Inline { data_capacity = 4096 }) "inline";
      test_ring_roundtrip (Cio_cionet.Config.Pool { pool_slots = 128; pool_slot_size = 2048 }) "pool";
      test_ring_roundtrip
        (Cio_cionet.Config.Indirect { desc_count = 128; pool_slots = 128; pool_slot_size = 2048 })
        "indirect";
      test_cionet_revoke ();
      test_ring_burst (Cio_cionet.Config.Inline { data_capacity = 4096 }) "inline" ~depth:16;
      test_ring_burst (Cio_cionet.Config.Pool { pool_slots = 256; pool_slot_size = 2048 }) "pool"
        ~depth:16;
      test_ring_burst
        (Cio_cionet.Config.Indirect { desc_count = 256; pool_slots = 256; pool_slot_size = 2048 })
        "indirect" ~depth:16;
      test_ring_burst (Cio_cionet.Config.Inline { data_capacity = 4096 }) "inline" ~depth:64;
      test_overload_admission ();
    ]
  in
  let full =
    [
      test_virtio ~hardened:false "virtio-unhardened";
      test_virtio ~hardened:true "virtio-hardened";
      test_packed ~hardened:false "packed-unhardened";
      test_packed ~hardened:true "packed-hardened";
      test_tls_record ();
      test_compartment_call ();
      test_storage ();
      test_dda ();
    ]
    @ test_crypto_primitives ()
    @ List.map test_echo_configuration Cio_core.Configurations.all_kinds
  in
  Test.make_grouped ~name:"cio" (if smoke then cionet else cionet @ full)

let () = Bechamel_notty.Unit.add Instance.monotonic_clock "ns"

(* Returns the merged OLS results so the --json path can extract ns/run
   per test after the notty table has been printed. *)
let run_micro ?(smoke = false) () =
  Fmt.pr "@.=== Bechamel micro-benchmarks (wall time of this implementation) ===@.";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg instances (micro_tests ~smoke ()) in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let results = Analyze.merge ols instances results in
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window ~predictor:Measure.run results
  in
  Notty_unix.eol img |> Notty_unix.output_image;
  results

(* --- machine-readable output (--json) -------------------------------- *)

let add_json_string buf s = Cio_util.Json_lite.(write buf (Str s))

let micro_ns_per_run results =
  (* merged results: measure label -> (test name -> OLS). One instance
     (monotonic_clock), so just flatten. *)
  let out = ref [] in
  Hashtbl.iter
    (fun _label per_test ->
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some (ns :: _) -> out := (name, ns) :: !out
          | _ -> ())
        per_test)
    results;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !out

let write_json ~file ~mode ~smoke ~experiments ~micro =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"schema\":\"cio-bench-v1\",\"mode\":";
  add_json_string buf mode;
  Buffer.add_string buf (Printf.sprintf ",\"smoke\":%b" smoke);
  Buffer.add_string buf ",\"experiments\":[";
  List.iteri
    (fun i (id, title, output) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"id\":";
      add_json_string buf id;
      Buffer.add_string buf ",\"title\":";
      add_json_string buf title;
      Buffer.add_string buf ",\"output\":";
      add_json_string buf output;
      Buffer.add_char buf '}')
    experiments;
  Buffer.add_string buf "],\"micro_ns_per_run\":{";
  List.iteri
    (fun i (name, ns) ->
      if i > 0 then Buffer.add_char buf ',';
      add_json_string buf name;
      Buffer.add_string buf (Printf.sprintf ":%.2f" ns))
    micro;
  Buffer.add_string buf "},\"metrics\":";
  Cio_telemetry.Metrics.to_json buf Cio_telemetry.Metrics.default;
  Buffer.add_string buf "}\n";
  let oc = open_out file in
  Buffer.output_buffer oc buf;
  close_out oc;
  Fmt.pr "wrote %s@." file

(* Fast, information-dense subset for CI smoke runs. e6 pins the TCB rows:
   a change that moves guest code moves them, and its baseline with it.
   e4 and e15 pin the attack matrices the host fault models drive. *)
let smoke_ids =
  [ "fig2"; "fig3"; "fig4"; "e1"; "e2"; "e4"; "e5"; "e6"; "e11"; "e12"; "e13"; "e15"; "e17"; "e18";
    "e21"; "e22" ]

(* Run one experiment, teeing its output to stdout and into the
   accumulator for --json. *)
let run_captured acc ?title id =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  (match title with Some t -> Fmt.pr "=== %s: %s ===@." id t | None -> ());
  let known = Cio_experiments.Experiments.run_one ppf id in
  Format.pp_print_flush ppf ();
  if known then begin
    print_string (Buffer.contents buf);
    Fmt.pr "@.";
    let title = match title with Some t -> t | None -> "" in
    acc := (id, title, Buffer.contents buf) :: !acc
  end
  else Fmt.epr "unknown experiment: %s@." id;
  known

let () =
  Cio_tcb.Tcb.set_repo_root ".";
  let rec parse (json, smoke, words) = function
    | [] -> (json, smoke, List.rev words)
    | "--json" :: file :: rest -> parse (Some file, smoke, words) rest
    | "--smoke" :: rest -> parse (json, true, words) rest
    | w :: rest -> parse (json, smoke, w :: words) rest
  in
  let json, smoke, words = parse (None, false, []) (List.tl (Array.to_list Sys.argv)) in
  let acc = ref [] in
  let table_ids () =
    List.filter_map
      (fun (id, title, _) ->
        if (not smoke) || List.mem id smoke_ids then Some (id, title) else None)
      Cio_experiments.Experiments.all
  in
  let run_tables () =
    List.iter (fun (id, title) -> ignore (run_captured acc ~title id)) (table_ids ())
  in
  let mode, micro =
    match words with
    | [] ->
        run_tables ();
        let r = run_micro ~smoke () in
        ("all", micro_ns_per_run r)
    | [ "tables" ] ->
        run_tables ();
        ("tables", [])
    | [ "micro" ] ->
        let r = run_micro ~smoke () in
        ("micro", micro_ns_per_run r)
    | ids ->
        let ok = List.for_all (fun id -> run_captured acc id) ids in
        if not ok then exit 1;
        ("select", [])
  in
  match json with
  | Some file -> write_json ~file ~mode ~smoke ~experiments:(List.rev !acc) ~micro
  | None -> ()

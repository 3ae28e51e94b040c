(* Bechamel micro-benchmarks: one Test.make per experiment datapath,
   measuring this implementation's real wall-clock time for the same
   operations (ring ops, driver pairs, record protection, crypto,
   compartment calls, end-to-end echoes). They validate that the
   simulator itself is fast enough to be used as a substrate. The
   simulated results themselves are `cio_sim`'s, kept as golden files
   under test/golden/.

   Usage:
     bench/main.exe [--smoke] [--json FILE]

     --smoke        run only the cionet micros (CI)
     --json FILE    also write machine-readable results (micro ns/run,
                    telemetry metrics snapshot) to FILE
*)

open Bechamel
open Toolkit

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

let write_json ~file ~smoke ~micro =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "{\"schema\":\"cio-bench-v1\",\"smoke\":%b" smoke);
  Buffer.add_string buf ",\"micro_ns_per_run\":{";
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

let () =
  let rec parse (json, smoke) = function
    | [] -> (json, smoke)
    | "--json" :: file :: rest -> parse (Some file, smoke) rest
    | "--smoke" :: rest -> parse (json, true) rest
    | _ ->
        prerr_endline "usage: main.exe [--smoke] [--json FILE]";
        exit 2
  in
  let json, smoke = parse (None, false) (List.tl (Array.to_list Sys.argv)) in
  let micro = micro_ns_per_run (run_micro ~smoke ()) in
  match json with Some file -> write_json ~file ~smoke ~micro | None -> ()

(* cio_lint: the static analyzer and its runtime counterpart.

   The static half is pinned by the repo's own sources: the
   intentionally-vulnerable driver_unhardened.ml is a living corpus that
   must keep producing findings, and the hardened/safe modules must stay
   clean. The runtime half drives the same corpus driver under an
   adversarial device and checks that the Region double-fetch sanitizer
   observes dynamically what the DF rule flags statically. *)

open Cio_mem
open Cio_virtio
open Cio_fault
module Host_model = Cio_cionet.Host_model
module Lint = Cio_lintlib.Lint
module Xref = Cio_lintlib.Xref

let root () = Helpers.repo_root ()

let count_categories findings =
  List.sort_uniq compare (List.map (fun f -> f.Lint.f_rule) findings) |> List.length

(* --- static: the living corpus ------------------------------------------ *)

let corpus_file = "lib/virtio/driver_unhardened.ml"

let test_corpus_yields_findings () =
  let fs = Lint.scan_file ~root:(root ()) corpus_file in
  Alcotest.(check bool)
    (Printf.sprintf "at least %d findings (got %d)" Lint.corpus_min_findings (List.length fs))
    true
    (List.length fs >= Lint.corpus_min_findings);
  Alcotest.(check bool)
    (Printf.sprintf "at least %d rule categories" Lint.corpus_min_categories)
    true
    (count_categories fs >= Lint.corpus_min_categories);
  List.iter
    (fun f -> Alcotest.(check string) "role" "corpus" (Lint.role_name f.Lint.f_role))
    fs;
  (* The corpus must exhibit the two headline taxonomy classes. *)
  Alcotest.(check bool) "has a double fetch" true
    (List.exists (fun f -> f.Lint.f_rule = Lint.DF) fs);
  Alcotest.(check bool) "has an unvalidated value" true
    (List.exists (fun f -> f.Lint.f_rule = Lint.UV) fs)

let test_safe_modules_clean () =
  List.iter
    (fun rel ->
      let fs = Lint.scan_file ~root:(root ()) rel in
      Alcotest.(check int)
        (rel ^ " is finding-free")
        0 (List.length fs))
    [
      "lib/cionet/ring.ml";
      "lib/cionet/driver.ml";
      "lib/virtio/driver_hardened.ml";
      "lib/virtio/vring.ml";
      "lib/mem/region.ml";
      "lib/util/rng.ml";
    ]

let test_trusted_tree_clean () =
  (* The full-tree scan must produce zero trusted-path findings: this is
     the same invariant the CI gate enforces, pinned here so `dune
     runtest` catches a regression without needing the baseline file. *)
  let fs = Lint.scan ~root:(root ()) in
  let trusted = List.filter (fun f -> f.Lint.f_role = Lint.Trusted) fs in
  List.iter (fun f -> Format.eprintf "unexpected: %a@." Lint.pp_finding f) trusted;
  Alcotest.(check int) "no trusted-path findings" 0 (List.length trusted)

let test_classify () =
  let check rel expect =
    Alcotest.(check string) rel expect (Lint.role_name (Lint.classify rel))
  in
  check "lib/cionet/ring.ml" "trusted";
  check "lib/mem/region.ml" "trusted";
  check "lib/tls/session.ml" "trusted";
  check "lib/virtio/driver_unhardened.ml" "corpus";
  check "lib/virtio/device.ml" "host-model";
  check "lib/cionet/host_model.ml" "host-model";
  check "lib/mem/host_fault.ml" "host-model";
  check "lib/attack/attack.ml" "host-model";
  check "lib/experiments/experiments.ml" "harness";
  check "lib/fault/campaign.ml" "harness"

(* Lint gates exactly the files the role table gives to the guest, and at
   least everything it gated before the table existed. *)
let test_gates_exactly_guest_files () =
  let gated rel = match Lint.classify rel with Lint.Trusted | Lint.Corpus -> true | _ -> false in
  let files = Cio_tcb.Tcb.ml_files ~root:(root ()) in
  List.iter
    (fun rel ->
      let guest = match Cio_tcb.Tcb.role rel with Cio_tcb.Tcb.Guest _ -> true | _ -> false in
      Alcotest.(check bool) (rel ^ " gated iff guest") guest (gated rel))
    files;
  let dirs =
    [ "lib/tcpip"; "lib/frame"; "lib/tls"; "lib/crypto"; "lib/compartment"; "lib/mem"; "lib/util";
      "lib/virtio"; "lib/cionet" ]
  in
  let always_gated rel =
    List.mem (Filename.dirname rel) dirs
    && rel <> "lib/virtio/device.ml"
    && rel <> "lib/cionet/host_model.ml"
    && rel <> "lib/mem/host_fault.ml"
  in
  let previously_gated = List.filter always_gated files in
  List.iter
    (fun dir ->
      Alcotest.(check bool) (dir ^ ": previously gated files found") true
        (List.exists (fun rel -> Filename.dirname rel = dir) previously_gated))
    dirs;
  List.iter (fun rel -> Alcotest.(check bool) (rel ^ " still gated") true (gated rel)) previously_gated

let test_host_model_skipped () =
  (* The device plays the adversary: reading guest memory twice is its
     job, so the analyzer must not flag it at all. *)
  Alcotest.(check int) "device.ml skipped" 0
    (List.length (Lint.scan_file ~root:(root ()) "lib/virtio/device.ml"))

(* --- baseline + two-sided gate ------------------------------------------ *)

let load_committed_baseline () =
  Lint.load_baseline (Filename.concat (root ()) "LINT_baseline.json")

let test_baseline_gate_ok () =
  let baseline = load_committed_baseline () in
  Alcotest.(check bool) "baseline nonempty" true (baseline <> []);
  let g = Lint.gate ~baseline (Lint.scan ~root:(root ())) in
  Alcotest.(check int) "no new trusted findings" 0 (List.length g.Lint.g_new_trusted);
  Alcotest.(check int) "no vanished corpus findings" 0 (List.length g.Lint.g_corpus_missing);
  Alcotest.(check bool) "corpus rich enough" true
    (g.Lint.g_corpus_count >= Lint.corpus_min_findings
    && g.Lint.g_corpus_categories >= Lint.corpus_min_categories);
  Alcotest.(check bool) "gate passes" true g.Lint.g_ok

let test_gate_fails_on_new_trusted_finding () =
  let baseline = load_committed_baseline () in
  let fake =
    {
      Lint.f_rule = Lint.UC;
      f_file = "lib/mem/region.ml";
      f_func = "read";
      f_line = 1;
      f_detail = "synthetic: Bytes.unsafe_get";
      f_role = Lint.Trusted;
    }
  in
  let g = Lint.gate ~baseline (fake :: Lint.scan ~root:(root ())) in
  Alcotest.(check int) "flagged as new" 1 (List.length g.Lint.g_new_trusted);
  Alcotest.(check bool) "gate fails" false g.Lint.g_ok

let test_gate_fails_on_vanished_corpus_finding () =
  let baseline = load_committed_baseline () in
  let phantom =
    {
      Lint.b_key = "DF|" ^ corpus_file ^ "|nonesuch|synthetic";
      b_file = corpus_file;
      b_rule = "DF";
    }
  in
  let g = Lint.gate ~baseline:(phantom :: baseline) (Lint.scan ~root:(root ())) in
  Alcotest.(check int) "phantom reported missing" 1 (List.length g.Lint.g_corpus_missing);
  Alcotest.(check bool) "gate fails" false g.Lint.g_ok

let test_baseline_matches_tree () =
  (* Every committed baseline key must still be produced, and every
     corpus finding must be in the baseline: `--update-baseline` was run
     when the corpus last changed. *)
  let baseline = load_committed_baseline () in
  let keys = List.map Lint.key (Lint.scan_file ~root:(root ()) corpus_file) in
  List.iter
    (fun b ->
      Alcotest.(check bool) ("still produced: " ^ b.Lint.b_key) true
        (List.mem b.Lint.b_key keys))
    baseline;
  List.iter
    (fun k ->
      Alcotest.(check bool) ("in baseline: " ^ k) true
        (List.exists (fun b -> b.Lint.b_key = k) baseline))
    keys

let test_rule_categories_map_to_fig34 () =
  let name r = Cio_data.Hardening.category_name (Lint.rule_category r) in
  Alcotest.(check string) "DF -> add copies" "add copies" (name Lint.DF);
  Alcotest.(check string) "UV -> add checks" "add checks" (name Lint.UV);
  Alcotest.(check string) "UC -> add checks" "add checks" (name Lint.UC);
  Alcotest.(check string) "UW -> design changes" "design changes" (name Lint.UW);
  Alcotest.(check string) "SI -> design changes" "design changes" (name Lint.SI)

(* --- runtime: the sanitizer reproduces the DF finding dynamically -------- *)

(* Statically, cio_lint flags Driver_unhardened.poll for fetching the
   used entry twice (the DF finding in the committed baseline). Here the
   same driver runs against a device that rewrites the length between
   those two fetches — and the Region sanitizer, armed on the very
   region the static rule reasons about, observes the double fetch AND
   the mutation at runtime. *)
let drive_virtio ~hardened =
  let transport = Transport.create ~name:"lint-runtime" () in
  let device =
    Device.create ~rx:(Transport.rx transport) ~tx:(Transport.tx transport)
      ~transmit:(fun _ -> ())
  in
  let region = Transport.region transport in
  Region.sanitizer_enable region;
  let poll =
    if hardened then
      let d = Driver_hardened.create transport in
      fun () -> ignore (Driver_hardened.poll d)
    else
      let d = Driver_unhardened.create transport in
      fun () -> ignore (Driver_unhardened.poll d)
  in
  Device.inject device (Device.Race_used_len 6000);
  Device.deliver_rx device (Bytes.of_string "honest-frame-payload");
  Device.poll device;
  for _ = 1 to 4 do
    Region.sanitizer_epoch region;
    (try poll () with
    | Driver_unhardened.Unbounded_work _ | Region.Fault _ | Invalid_argument _ -> ())
  done;
  Region.sanitizer_stats region

let test_runtime_double_fetch_on_unhardened () =
  let s = drive_virtio ~hardened:false in
  Alcotest.(check bool) "double fetch observed" true (s.Region.double_fetches >= 1);
  Alcotest.(check bool) "host mutation between fetches observed" true
    (s.Region.mutated_fetches >= 1)

let test_runtime_hardened_single_fetch () =
  let s = drive_virtio ~hardened:true in
  Alcotest.(check int) "hardened driver never re-fetches" 0 s.Region.double_fetches;
  Alcotest.(check int) "no race window" 0 s.Region.mutated_fetches

let test_campaign_sanitized_safe_path_clean () =
  (* The sanitizer rides inside a fault campaign on the safe cionet
     datapath: even under injected faults it must see no double fetch —
     the safe interface reads each header exactly once by construction. *)
  let config =
    { Campaign.default_config with
      Campaign.watchdog_budget = 120;
      max_steps = 120_000;
      target_echoes = 6;
      sanitize = true }
  in
  let r =
    Campaign.run ~config
      { Plan.seed = 77L; injections = [ { Plan.at_step = 700; kind = Plan.Host (Host_model.Lie_len 999_999) } ] }
  in
  Alcotest.(check bool) "campaign survived" true r.Campaign.survived;
  Alcotest.(check int) "safe path: no double fetches" 0 r.Campaign.sanitizer_double_fetches;
  Alcotest.(check int) "safe path: no mutated fetches" 0 r.Campaign.sanitizer_mutated_fetches

(* --- the export index and its two rules ---------------------------------- *)

let export mli value = { Xref.x_unit = "Synthetic"; x_mli = mli; x_value = value }

let rules index =
  List.map (fun f -> (f.Xref.export.Xref.x_value, Xref.rule_name f.Xref.rule)) (Xref.check index)

let test_xref_classifier () =
  let session = "lib/tls/session.mli" and hex = "lib/util/hex.mli" in
  let index =
    [
      (* its own implementation is no caller *)
      (export hex "self_only", [ "lib/util/hex.ml" ]);
      (export hex "unreferenced", []);
      (* outside the core, a test caller keeps an export *)
      (export hex "tested", [ "lib/util/hex.ml"; "test/test_util.ml" ]);
      (* in the core it does not *)
      (export session "tested", [ "lib/tls/session.ml"; "test/test_tls.ml" ]);
      (* examples, perfbench, bench, bin and other lib units are production *)
      (export session "example", [ "examples/quickstart.ml"; "test/test_tls.ml" ]);
      (export session "perfbench", [ "perfbench/echo.ml" ]);
      (export session "bench", [ "bench/main.ml" ]);
      (export session "bin", [ "bin/cio_sim.ml" ]);
      (export session "lib", [ "lib/core/channel.ml" ]);
      (export "lib/crypto/aead.mli" "crypto", [ "test/test_crypto.ml" ]);
      (export "lib/compartment/compartment.mli" "compartment", [ "test/test_compartment.ml" ]);
    ]
  in
  Alcotest.(check (list (pair string string)))
    "findings"
    [
      ("self_only", "dead-export");
      ("unreferenced", "dead-export");
      ("tested", "test-only-export");
      ("crypto", "test-only-export");
      ("compartment", "test-only-export");
    ]
    (rules index);
  Alcotest.(check bool) "test tree is not production" false (Xref.is_production "test/helpers.ml")

let test_xref_core_is_dual_boundary () =
  let core = (Cio_core.Configurations.tcb Cio_core.Configurations.Dual_boundary).core in
  Alcotest.(check (list string)) "test-only-export covers the dual-boundary core"
    (List.map Cio_tcb.Tcb.component_name core)
    (List.map Cio_tcb.Tcb.component_name Xref.core)

(* A sample of the index over this tree's own typed trees, one entry per
   way a name reaches its export. *)
let test_xref_real_index () =
  let index = Xref.read ~root:(root ()) in
  let callers unit value =
    match List.find_opt (fun (e, _) -> e.Xref.x_unit = unit && e.Xref.x_value = value) index with
    | Some (_, files) -> files
    | None -> Alcotest.failf "%s.%s is not indexed" unit value
  in
  let pin ~why unit value file =
    Alcotest.(check bool) (Printf.sprintf "%s: %s.%s from %s" why unit value file) true
      (List.mem file (callers unit value))
  in
  pin ~why:"module alias" "Cio_lintlib__Lint" "scan" "bin/cio_lint.ml";
  pin ~why:"let module alias" "Cio_telemetry__Trace" "enable" "bin/cio_sim.ml";
  pin ~why:"wrapped, inside the library" "Cio_tls__Wire" "write_header" "lib/tls/session.ml";
  pin ~why:"wrapped, from another library" "Cio_tls__Session" "feed_into" "lib/core/channel.ml";
  pin ~why:"re-export by include" "Cio_util__Json_lite" "of_string"
    "perfbench/test/test_perfbench.ml";
  pin ~why:"first-class module" "Cio_netsim__Engine" "step" "test/test_netsim.ml";
  pin ~why:"through a local structure's include" "Cio_tls__Keys" "finished_mac"
    "test/record_oracle.ml"

(* The gate CI runs as [cio_lint --exports]: every lib export has a
   caller, and the core's a production one. *)
let test_xref_gate_clean () =
  let index = Xref.read ~root:(root ()) in
  let findings = Xref.check index in
  if findings <> [] then Xref.pp_report Format.err_formatter (index, findings);
  Alcotest.(check int) "no dead-export or test-only-export findings" 0 (List.length findings)

let suite =
  [
    Alcotest.test_case "lint: corpus yields findings" `Quick test_corpus_yields_findings;
    Alcotest.test_case "lint: safe modules clean" `Quick test_safe_modules_clean;
    Alcotest.test_case "lint: trusted tree clean" `Quick test_trusted_tree_clean;
    Alcotest.test_case "lint: classify roles" `Quick test_classify;
    Alcotest.test_case "lint: host model skipped" `Quick test_host_model_skipped;
    Alcotest.test_case "lint: gates exactly the guest files" `Quick test_gates_exactly_guest_files;
    Alcotest.test_case "lint: baseline gate ok" `Quick test_baseline_gate_ok;
    Alcotest.test_case "lint: gate fails on new trusted finding" `Quick
      test_gate_fails_on_new_trusted_finding;
    Alcotest.test_case "lint: gate fails on vanished corpus finding" `Quick
      test_gate_fails_on_vanished_corpus_finding;
    Alcotest.test_case "lint: baseline matches tree" `Quick test_baseline_matches_tree;
    Alcotest.test_case "lint: rules map to Fig. 3/4" `Quick test_rule_categories_map_to_fig34;
    Alcotest.test_case "lint: runtime DF on unhardened driver" `Quick
      test_runtime_double_fetch_on_unhardened;
    Alcotest.test_case "lint: runtime clean on hardened driver" `Quick
      test_runtime_hardened_single_fetch;
    Alcotest.test_case "lint: sanitized campaign, safe path clean" `Slow
      test_campaign_sanitized_safe_path_clean;
    Alcotest.test_case "exports: classifier on synthetic tables" `Quick test_xref_classifier;
    Alcotest.test_case "exports: core is the dual-boundary core" `Quick
      test_xref_core_is_dual_boundary;
    Alcotest.test_case "exports: pinned sample of the real index" `Quick test_xref_real_index;
    Alcotest.test_case "exports: gate clean on this tree" `Quick test_xref_gate_clean;
  ]

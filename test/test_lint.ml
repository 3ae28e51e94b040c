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
module Lint = Cio_lintlib.Lint

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
  let always_gated rel =
    List.exists
      (fun dir -> Filename.dirname rel = dir)
      [ "lib/tcpip"; "lib/frame"; "lib/tls"; "lib/crypto"; "lib/compartment"; "lib/mem"; "lib/util" ]
    || (Filename.dirname rel = "lib/virtio" && rel <> "lib/virtio/device.ml")
    || (Filename.dirname rel = "lib/cionet" && rel <> "lib/cionet/host_model.ml")
  in
  let previously_gated = List.filter always_gated files in
  Alcotest.(check bool) "previously gated files found" true (List.length previously_gated > 40);
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
      { Plan.seed = 77L; injections = [ { Plan.at_step = 700; kind = Plan.Host_lie_len 999_999 } ] }
  in
  Alcotest.(check bool) "campaign survived" true r.Campaign.survived;
  Alcotest.(check int) "safe path: no double fetches" 0 r.Campaign.sanitizer_double_fetches;
  Alcotest.(check int) "safe path: no mutated fetches" 0 r.Campaign.sanitizer_mutated_fetches

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
  ]

(* Observability scoring + TCB accounting tests. *)

open Cio_observe
open Cio_tcb
module C = Cio_core.Configurations

let test_tap_records () =
  let t = Observe.create "tap" in
  Observe.record t ~time:0L ~kind:"frame" ~size:100;
  Observe.record t ~time:1000L ~kind:"frame" ~size:200;
  Observe.record t ~time:2000L ~kind:"kick" ~size:0;
  Alcotest.(check int) "count" 3 (Observe.count t);
  Alcotest.(check int) "kinds" 2 (Observe.kinds t)

let test_uniform_stream_low_entropy () =
  let uniform = Observe.create "uniform" and varied = Observe.create "varied" in
  for i = 0 to 99 do
    Observe.record uniform ~time:(Int64.of_int (i * 1000)) ~kind:"blob" ~size:1600;
    Observe.record varied
      ~time:(Int64.of_int (i * i * 137))
      ~kind:(if i mod 3 = 0 then "send" else "recv")
      ~size:(17 * ((i * 31 mod 11) + 1) * (i mod 7 + 1))
  done;
  Alcotest.(check bool) "uniform < varied" true (Observe.score uniform < Observe.score varied)

let test_empty_tap_scores_zero () =
  let t = Observe.create "empty" in
  Alcotest.(check (float 1e-9)) "zero" 0.0 (Observe.entropy_bits t)

let test_clear () =
  let t = Observe.create "c" in
  Observe.record t ~time:0L ~kind:"x" ~size:1;
  Observe.clear t;
  Alcotest.(check int) "cleared" 0 (Observe.count t)

let test_more_kinds_more_score () =
  let few = Observe.create "few" and many = Observe.create "many" in
  for i = 0 to 63 do
    Observe.record few ~time:(Int64.of_int (i * 1000)) ~kind:"frame" ~size:(100 + (i mod 4));
    Observe.record many
      ~time:(Int64.of_int (i * 1000))
      ~kind:(Printf.sprintf "op%d" (i mod 8))
      ~size:(100 + (i mod 4))
  done;
  Alcotest.(check bool) "richer vocabulary scores higher" true
    (Observe.score many > Observe.score few)

(* Every TCB test counts the real tree: under [dune runtest] the working
   directory has no lib/, and a missing tree raises. *)
let use_real_tree () = Tcb.set_repo_root (Helpers.repo_root ())

let profile_components kind =
  let t = C.tcb kind in
  t.C.core @ t.C.quarantined

let test_tcb_components_measured () =
  use_real_tree ();
  List.iter
    (fun c ->
      Alcotest.(check bool) (Tcb.component_name c ^ " nonzero") true (Tcb.loc c > 0))
    (List.sort_uniq compare (List.concat_map profile_components C.all_kinds))

let test_tcb_unmapped_path_and_missing_tree_raise () =
  Alcotest.check_raises "unmapped path"
    (Invalid_argument "Tcb.role: no role for lib/nonesuch/x.ml") (fun () ->
      ignore (Tcb.role "lib/nonesuch/x.ml"));
  Tcb.set_repo_root (Filename.concat (Helpers.repo_root ()) "nonesuch");
  let raised = match Tcb.loc Tcb.Tls with _ -> false | exception Sys_error _ -> true in
  use_real_tree ();
  Alcotest.(check bool) "missing tree raises" true raised

let test_tcb_profiles_complete () =
  use_real_tree ();
  List.iter
    (fun kind ->
      let config = C.kind_name kind and t = C.tcb kind in
      Alcotest.(check bool) (config ^ " has a core") true (t.C.core <> []);
      Alcotest.(check bool) (config ^ " core loc > 0") true (Tcb.sum t.C.core > 0))
    C.all_kinds

let test_tcb_dual_smallest_l2_core () =
  use_real_tree ();
  let core kind = Tcb.sum (C.tcb kind).C.core in
  List.iter
    (fun kind ->
      Alcotest.(check bool) ("dual < " ^ C.kind_name kind) true
        (core C.Dual_boundary < core kind))
    [ C.Passthrough_l2; C.Hardened_virtio; C.Tunneled ];
  Alcotest.(check bool) "dual quarantined > 0" true
    (Tcb.sum (C.tcb C.Dual_boundary).C.quarantined > 0);
  Alcotest.(check int) "passthrough quarantines nothing" 0
    (Tcb.sum (C.tcb C.Passthrough_l2).C.quarantined)

let test_tcb_stack_outside_dual_core () =
  let t = C.tcb C.Dual_boundary in
  Alcotest.(check bool) "stack quarantined" true (List.mem Tcb.Tcpip_stack t.C.quarantined);
  Alcotest.(check bool) "stack not in core" false (List.mem Tcb.Tcpip_stack t.C.core)

(* The role table covers the tree exactly: every lib/**/*.ml resolves to
   one role, and every entry names a path that exists, once. *)
let test_tcb_every_file_has_one_role () =
  let root = Helpers.repo_root () in
  let files = Tcb.ml_files ~root in
  Alcotest.(check bool) "tree has sources" true (files <> []);
  List.iter
    (fun rel ->
      match Tcb.role rel with
      | _ -> ()
      | exception Invalid_argument msg -> Alcotest.fail msg)
    files;
  List.iter
    (fun (path, _) ->
      Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists (Filename.concat root path)))
    Tcb.table;
  let paths = List.map fst Tcb.table in
  Alcotest.(check int) "no path listed twice" (List.length paths)
    (List.length (List.sort_uniq compare paths))

(* Host models play the adversary and the harness is the simulated world:
   neither may count in any configuration's TCB. *)
let test_tcb_only_guest_code_counted () =
  use_real_tree ();
  List.iter
    (fun kind ->
      let counted = List.concat_map Tcb.files (profile_components kind) in
      List.iter
        (fun rel ->
          Alcotest.(check bool)
            (C.kind_name kind ^ ": " ^ rel ^ " is guest code")
            true
            (match Tcb.role rel with Tcb.Guest _ -> true | Tcb.Host_model | Tcb.Harness -> false))
        counted;
      List.iter
        (fun host ->
          Alcotest.(check bool) (C.kind_name kind ^ " excludes " ^ host) false
            (List.mem host counted))
        [ "lib/virtio/device.ml"; "lib/cionet/host_model.ml"; "lib/core/configurations.ml" ])
    C.all_kinds;
  Alcotest.(check bool) "tunneled runs no virtio" false
    (List.exists
       (fun c -> List.mem c [ Tcb.Virtio_queue; Tcb.Virtio_unhardened; Tcb.Virtio_hardened ])
       (profile_components C.Tunneled))

let suite =
  [
    Alcotest.test_case "observe: tap records" `Quick test_tap_records;
    Alcotest.test_case "observe: uniform stream scores low" `Quick test_uniform_stream_low_entropy;
    Alcotest.test_case "observe: empty tap" `Quick test_empty_tap_scores_zero;
    Alcotest.test_case "observe: clear" `Quick test_clear;
    Alcotest.test_case "observe: kind richness" `Quick test_more_kinds_more_score;
    Alcotest.test_case "tcb: components measured" `Quick test_tcb_components_measured;
    Alcotest.test_case "tcb: unmapped path or tree raises" `Quick
      test_tcb_unmapped_path_and_missing_tree_raise;
    Alcotest.test_case "tcb: profiles complete" `Quick test_tcb_profiles_complete;
    Alcotest.test_case "tcb: dual smallest L2 core" `Quick test_tcb_dual_smallest_l2_core;
    Alcotest.test_case "tcb: stack quarantined in dual" `Quick test_tcb_stack_outside_dual_core;
    Alcotest.test_case "tcb: every lib file has one role" `Quick
      test_tcb_every_file_has_one_role;
    Alcotest.test_case "tcb: only guest code counted" `Quick test_tcb_only_guest_code_counted;
  ]

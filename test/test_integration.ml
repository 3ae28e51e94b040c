(* End-to-end integration under a hostile network: the full dual-boundary
   unit talking to a peer across a link owned by the netsim adversary.
   The claims under test are the paper's bottom line:

   - liveness: TCP + the safe ring recover from drops, duplicates and
     reordering; the workload completes;
   - safety: the record layer never delivers wrong application data — a
     corrupted-but-checksum-valid stream either heals (TCP checksum) or
     kills the session, it never yields bad bytes. *)

open Cio_core
open Cio_netsim
open Cio_util

let make_world ~seed ~profile () =
  let bed = Testbed.create ~name:"itest" ~psk_id:"itest" ~seed () in
  let w = Testbed.attach_dual bed in
  (* The adversary owns both directions of the link. *)
  (match profile with
  | None -> ()
  | Some p ->
      let adv_a = Adversary.create ~rng:(Rng.split bed.rng) p in
      let adv_b = Adversary.create ~rng:(Rng.split bed.rng) p in
      Adversary.install adv_a bed.link ~src:Link.A;
      Adversary.install adv_b bed.link ~src:Link.B);
  w

let pump w = Testbed.pump w ~by:2_000L

let run_until w pred max_steps =
  let rec go n =
    pred ()
    ||
    if n = 0 then false
    else begin
      pump w;
      go (n - 1)
    end
  in
  go max_steps

(* Echo [count] distinct messages and verify every reply byte-exactly. *)
let echo_workload w ~count ~max_steps =
  let ch = Testbed.connect w in
  if not (run_until w (fun () -> Channel.is_established ch) max_steps) then `Handshake_stuck
  else begin
    let mismatches = ref 0 and echoes = ref 0 and sent = ref 0 in
    let expected = Queue.create () in
    let make_msg i = Bytes.of_string (Printf.sprintf "message-%04d-%s" i (String.make (i mod 200) 'x')) in
    let finished =
      run_until w
        (fun () ->
          (if Channel.is_established ch && !sent < count && !sent - !echoes < 4 then
             let msg = make_msg !sent in
             match Channel.send ch msg with
             | Ok () ->
                 Queue.add msg expected;
                 incr sent
             | Error _ -> ());
          (match Channel.recv ch with
          | Some reply ->
              incr echoes;
              let want = Queue.take expected in
              if not (Bytes.equal reply want) then incr mismatches
          | None -> ());
          !echoes >= count || Channel.error ch <> None)
        max_steps
    in
    if !mismatches > 0 then `Wrong_data
    else if Channel.error ch <> None then `Session_killed
    else if finished && !echoes >= count then `Completed
    else `Stuck
  end

let test_benign_network () =
  let w = make_world ~seed:100L ~profile:None () in
  Alcotest.(check string) "completes" "completed"
    (match echo_workload w ~count:40 ~max_steps:60_000 with
    | `Completed -> "completed"
    | `Wrong_data -> "WRONG DATA"
    | `Session_killed -> "killed"
    | `Handshake_stuck -> "handshake stuck"
    | `Stuck -> "stuck")

let hostile_tolerant p =
  (* Safety always; liveness expected for loss-only impairments. *)
  match p with
  | `Completed | `Session_killed -> true  (* corrupting adversaries may kill; never wrong data *)
  | `Wrong_data -> false
  | `Handshake_stuck | `Stuck -> false

let test_lossy_network_recovers () =
  let profile = { Adversary.benign with Adversary.drop = 0.05 } in
  let w = make_world ~seed:101L ~profile:(Some profile) () in
  (* Loss must not affect correctness OR completion: TCP retransmits. *)
  Alcotest.(check string) "completes despite 5% loss" "completed"
    (match echo_workload w ~count:25 ~max_steps:400_000 with
    | `Completed -> "completed"
    | `Wrong_data -> "WRONG DATA"
    | `Session_killed -> "killed"
    | `Handshake_stuck -> "handshake stuck"
    | `Stuck -> "stuck")

let test_duplicating_network () =
  let profile = { Adversary.benign with Adversary.duplicate = 0.15 } in
  let w = make_world ~seed:102L ~profile:(Some profile) () in
  Alcotest.(check string) "completes despite duplication" "completed"
    (match echo_workload w ~count:25 ~max_steps:400_000 with
    | `Completed -> "completed"
    | `Wrong_data -> "WRONG DATA"
    | e -> (match e with `Session_killed -> "killed" | _ -> "stuck"))

let test_reordering_network () =
  let profile = { Adversary.benign with Adversary.reorder = 0.15; extra_delay_ns = 30_000L } in
  let w = make_world ~seed:103L ~profile:(Some profile) () in
  Alcotest.(check string) "completes despite reordering" "completed"
    (match echo_workload w ~count:25 ~max_steps:400_000 with
    | `Completed -> "completed"
    | `Wrong_data -> "WRONG DATA"
    | e -> (match e with `Session_killed -> "killed" | _ -> "stuck"))

let test_corrupting_network_never_wrong_data () =
  (* Frame corruption: TCP checksums catch most, and anything that slips
     through any checksum dies at the record layer. The one unacceptable
     outcome is wrong application data. *)
  let profile = { Adversary.benign with Adversary.corrupt = 0.08 } in
  let w = make_world ~seed:104L ~profile:(Some profile) () in
  let outcome = echo_workload w ~count:25 ~max_steps:400_000 in
  Alcotest.(check bool) "no wrong data, no livelock" true (hostile_tolerant outcome)

let test_replaying_network_never_wrong_data () =
  let profile = { Adversary.benign with Adversary.replay = 0.10 } in
  let w = make_world ~seed:105L ~profile:(Some profile) () in
  let outcome = echo_workload w ~count:25 ~max_steps:400_000 in
  Alcotest.(check bool) "no wrong data" true (hostile_tolerant outcome)

let test_full_hostile_profile () =
  let w = make_world ~seed:106L ~profile:(Some Adversary.hostile) () in
  let outcome = echo_workload w ~count:15 ~max_steps:600_000 in
  Alcotest.(check bool) "full hostile profile: no wrong data" true (hostile_tolerant outcome)

let test_multiple_channels_one_unit () =
  (* Several concurrent L5 channels through a single confidential unit:
     the shared I/O compartment serves all of them under the same single
     crossing per quantum. *)
  let w = make_world ~seed:107L ~profile:None () in
  let chans = List.init 4 (fun _ -> Testbed.connect w) in
  Alcotest.(check bool) "all established" true
    (run_until w (fun () -> List.for_all Channel.is_established chans) 60_000);
  List.iteri
    (fun i ch ->
      match Channel.send ch (Bytes.of_string (Printf.sprintf "chan-%d" i)) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Cio_tls.Session.error_to_string e))
    chans;
  let echoes = Array.make (List.length chans) None in
  let all_echoed () =
    List.iteri (fun i ch -> if echoes.(i) = None then echoes.(i) <- Channel.recv ch) chans;
    Array.for_all Option.is_some echoes
  in
  Alcotest.(check bool) "all echoed" true (run_until w all_echoed 60_000);
  Array.iteri
    (fun i m ->
      Helpers.check_bytes "demuxed correctly" (Bytes.of_string (Printf.sprintf "chan-%d" i))
        (Option.get m))
    echoes

let test_host_sees_only_ciphertext () =
  (* Record every frame at the link; after a session with a known secret
     payload, the secret must appear in none of them. *)
  let w = make_world ~seed:108L ~profile:None () in
  let captured = Buffer.create 4096 in
  Link.set_transit_tap w.bed.link
    (Some (fun ~time:_ ~src:_ frame -> Buffer.add_bytes captured frame));
  let ch = Testbed.connect w in
  Alcotest.(check bool) "established" true
    (run_until w (fun () -> Channel.is_established ch) 30_000);
  let secret = "TOP-SECRET-PAYLOAD-DO-NOT-LEAK" in
  ignore (Channel.send ch (Bytes.of_string secret));
  Alcotest.(check bool) "echoed" true
    (run_until w (fun () -> Channel.recv ch <> None) 30_000);
  let wire = Buffer.contents captured in
  let contains needle =
    let n = String.length wire and c = String.length needle in
    let rec go i = i + c <= n && (String.equal (String.sub wire i c) needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "plaintext never on the wire" false (contains secret);
  Alcotest.(check bool) "wire was captured" true (String.length wire > 0)

let test_hot_swap_under_traffic () =
  (* E12 as a test: hot swap mid-session; the workload completes and no
     wrong data appears. *)
  let w = make_world ~seed:109L ~profile:None () in
  let ch = Testbed.connect w in
  Alcotest.(check bool) "established" true
    (run_until w (fun () -> Channel.is_established ch) 30_000);
  let echoes = ref 0 and sent = ref 0 and swapped = ref false in
  let ok =
    run_until w
      (fun () ->
        (if !sent < 20 && !sent - !echoes < 2 then
           match Channel.send ch (Bytes.of_string (Printf.sprintf "m%d" !sent)) with
           | Ok () -> incr sent
           | Error _ -> ());
        (match Channel.recv ch with Some _ -> incr echoes | None -> ());
        if !echoes = 8 && not !swapped then begin
          swapped := true;
          Cio_cionet.Driver.hot_swap (Dual.driver w.unit_)
        end;
        !echoes >= 20)
      300_000
  in
  Alcotest.(check bool) "completes across hot swap" true ok;
  Alcotest.(check (option string)) "no session error" None
    (Option.map Cio_tls.Session.error_to_string (Channel.error ch));
  Alcotest.(check int) "device migrated" 1 (Cio_cionet.Driver.generation (Dual.driver w.unit_))

let suite =
  [
    Alcotest.test_case "benign network" `Slow test_benign_network;
    Alcotest.test_case "5% loss: recovers" `Slow test_lossy_network_recovers;
    Alcotest.test_case "15% duplication: recovers" `Slow test_duplicating_network;
    Alcotest.test_case "15% reordering: recovers" `Slow test_reordering_network;
    Alcotest.test_case "8% corruption: never wrong data" `Slow test_corrupting_network_never_wrong_data;
    Alcotest.test_case "10% replay: never wrong data" `Slow test_replaying_network_never_wrong_data;
    Alcotest.test_case "full hostile profile" `Slow test_full_hostile_profile;
    Alcotest.test_case "four channels, one unit" `Slow test_multiple_channels_one_unit;
    Alcotest.test_case "host sees only ciphertext" `Slow test_host_sees_only_ciphertext;
    Alcotest.test_case "hot swap under traffic" `Slow test_hot_swap_under_traffic;
  ]

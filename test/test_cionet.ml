(* Tests for the paper's safe L2 interface: geometry, all three data
   positionings, both receive strategies, confinement properties, and the
   host-model attack knobs. *)

open Cio_mem
open Cio_cionet
open Cio_util

let config_with pos = { Config.default with Config.positioning = pos }

let inline_cfg = config_with (Config.Inline { data_capacity = 4096 })
let pool_cfg = config_with (Config.Pool { pool_slots = 128; pool_slot_size = 2048 })
let indirect_cfg = config_with (Config.Indirect { desc_count = 128; pool_slots = 128; pool_slot_size = 2048 })

let make ?(cfg = inline_cfg) () =
  let drv = Driver.create ~name:"test-cionet" cfg in
  let sent = ref [] in
  let host = Host_model.create ~driver:drv ~transmit:(fun f -> sent := f :: !sent) in
  (drv, host, sent)

let test_layout_power_of_two_enforced () =
  Alcotest.check_raises "non-pow2 unit"
    (Invalid_argument "Ring.layout: payload unit size must be a power of two") (fun () ->
      ignore (Ring.layout ~page_size:4096 ~slots:64 (Config.Inline { data_capacity = 1000 })))

let test_layout_arena_aligned () =
  let lay = Ring.layout ~page_size:4096 ~slots:64 (Config.Inline { data_capacity = 4096 }) in
  Alcotest.(check bool) "arena aligned to own size" true
    (Bitops.is_aligned lay.Ring.data_off ~align:(min lay.Ring.data_size (1 lsl 20)) ||
     Bitops.is_aligned lay.Ring.data_off ~align:lay.Ring.data_size);
  Alcotest.(check int) "arena size" (64 * 4096) lay.Ring.data_size

let roundtrip cfg name =
  let drv, host, sent = make ~cfg () in
  Alcotest.(check bool) (name ^ " tx") true (Driver.transmit drv (Bytes.of_string "tx-payload"));
  Host_model.poll host;
  Alcotest.(check int) (name ^ " forwarded") 1 (List.length !sent);
  Helpers.check_bytes (name ^ " tx content") (Bytes.of_string "tx-payload") (List.hd !sent);
  Host_model.deliver_rx host (Bytes.of_string "rx-payload");
  Host_model.poll host;
  match Driver.poll drv with
  | Some f -> Helpers.check_bytes (name ^ " rx content") (Bytes.of_string "rx-payload") f
  | None -> Alcotest.fail (name ^ ": no rx")

let test_inline_roundtrip () = roundtrip inline_cfg "inline"
let test_pool_roundtrip () = roundtrip pool_cfg "pool"
let test_indirect_roundtrip () = roundtrip indirect_cfg "indirect"

(* A delivered frame is the host's: staged as it is, recycled once
   produced, and the next TX frame of its length is drained into it. *)
let test_host_reuses_delivered_buffer () =
  let drv, host, sent = make () in
  let delivered = Bytes.make 60 'r' in
  Host_model.deliver_rx host delivered;
  Host_model.poll host;
  (match Driver.poll drv with
  | Some f -> Helpers.check_bytes "rx content" (Bytes.make 60 'r') f
  | None -> Alcotest.fail "no rx");
  ignore (Driver.transmit drv (Bytes.make 60 't'));
  Host_model.poll host;
  match !sent with
  | [ f ] ->
      Alcotest.(check bool) "TX drained into the delivered buffer" true (f == delivered);
      Helpers.check_bytes "tx content" (Bytes.make 60 't') f
  | l -> Alcotest.failf "%d frames forwarded" (List.length l)

let test_sustained_traffic_wraps () =
  let drv, host, sent = make () in
  for i = 1 to 500 do
    Alcotest.(check bool) "tx accepted" true
      (Driver.transmit drv (Bytes.of_string (Printf.sprintf "frame-%04d" i)));
    Host_model.deliver_rx host (Bytes.of_string (Printf.sprintf "back-%04d" i));
    Host_model.poll host;
    match Driver.poll drv with
    | Some f -> Helpers.check_bytes "in order" (Bytes.of_string (Printf.sprintf "back-%04d" i)) f
    | None -> Alcotest.fail "rx lost"
  done;
  Alcotest.(check int) "all forwarded" 500 (List.length !sent)

let test_ring_full_backpressure () =
  let drv, _host, _ = make () in
  let accepted = ref 0 in
  for _ = 1 to 200 do
    if Driver.transmit drv (Bytes.make 100 'x') then incr accepted
  done;
  Alcotest.(check int) "bounded by ring size" Config.default.Config.ring_slots !accepted;
  Alcotest.(check bool) "misses counted" ((Ring.counters (Driver.tx_ring drv)).Ring.full_misses > 0) true

let test_oversized_payload_rejected () =
  let drv, _, _ = make () in
  Alcotest.check_raises "too large"
    (Invalid_argument "Ring.try_produce: payload larger than slot capacity") (fun () ->
      ignore (Driver.transmit drv (Bytes.make 5000 'x')))

let test_revoke_strategy_roundtrip () =
  let cfg = { inline_cfg with Config.rx_strategy = Config.Revoke } in
  let drv, host, _ = make ~cfg () in
  Host_model.deliver_rx host (Bytes.of_string "revoked-payload");
  Host_model.poll host;
  (match Driver.poll drv with
  | Some f -> Helpers.check_bytes "content" (Bytes.of_string "revoked-payload") f
  | None -> Alcotest.fail "no rx");
  let m = Driver.guest_meter drv in
  Alcotest.(check bool) "unshare charged" (Cost.count_of m Cost.Unshare > 0) true;
  Alcotest.(check bool) "reshare charged" (Cost.count_of m Cost.Share > 0) true

let test_revoked_page_blocks_host () =
  let cfg = { inline_cfg with Config.rx_strategy = Config.Revoke } in
  let drv, host, _ = make ~cfg () in
  Host_model.deliver_rx host (Bytes.of_string "first");
  Host_model.poll host;
  match Ring.try_consume_revoke_burst ~pool:(Driver.pool drv) ~max:1 (Driver.rx_ring drv) with
  | None -> Alcotest.fail "no zero-copy rx"
  | Some zc ->
      (* While the guest holds the slot, its pages are private: the host
         producing into that slot faults (and the model absorbs it). *)
      let off, _ = Ring.data_arena (Driver.rx_ring drv) in
      (match Region.host_read (Driver.region drv) ~off ~len:16 with
      | _ -> Alcotest.fail "revoked page must be invisible to host"
      | exception Region.Fault _ -> ());
      Alcotest.(check int) "one slot held" 1 (List.length zc.Ring.frames);
      zc.Ring.release ();
      (* After release the host can touch it again. *)
      ignore (Region.host_read (Driver.region drv) ~off ~len:16)

let test_copy_strategy_charges_copy () =
  let drv, host, _ = make () in
  let before = Cost.cycles_of (Driver.guest_meter drv) Cost.Copy in
  Host_model.deliver_rx host (Bytes.make 2048 'z');
  Host_model.poll host;
  ignore (Driver.poll drv);
  Alcotest.(check bool) "copy paid" (Cost.cycles_of (Driver.guest_meter drv) Cost.Copy > before) true

let test_single_fetch_header () =
  (* The consumer must read each slot header exactly once per consume:
     count guest reads that cover the header word, as reported by the
     read hook that fires after every guest read of shared memory. *)
  let drv, host, _ = make () in
  Host_model.deliver_rx host (Bytes.of_string "data");
  Host_model.poll host;
  let region = Driver.region drv in
  let hdr_off = Ring.header_offset (Driver.rx_ring drv) 0 in
  let header_reads = ref 0 in
  Region.set_guest_read_hook region
    (Some (fun ~off ~len -> if off <= hdr_off && hdr_off < off + len then incr header_reads));
  ignore (Driver.poll drv);
  Region.set_guest_read_hook region None;
  Alcotest.(check int) "exactly one header fetch" 1 !header_reads

let test_no_notifications_by_default () =
  let drv, host, _ = make () in
  ignore (Driver.transmit drv (Bytes.of_string "x"));
  Host_model.deliver_rx host (Bytes.of_string "y");
  Host_model.poll host;
  ignore (Driver.poll drv);
  Alcotest.(check int) "zero notification cycles" 0
    (Cost.count_of (Driver.guest_meter drv) Cost.Notification)

let test_notifications_optional () =
  let cfg = { inline_cfg with Config.use_notifications = true } in
  let drv, _, _ = make ~cfg () in
  ignore (Driver.transmit drv (Bytes.of_string "x"));
  Alcotest.(check int) "doorbell charged" 1
    (Cost.count_of (Driver.guest_meter drv) Cost.Notification)

(* --- hostile host ------------------------------------------------------ *)

let test_lie_len_confined () =
  (* Both receive strategies confine the lie and count the clamp. *)
  List.iter
    (fun (name, rx_strategy) ->
      let drv, host, _ = make ~cfg:{ inline_cfg with Config.rx_strategy } () in
      Host_model.inject host (Host_model.Lie_len 100000);
      Host_model.deliver_rx host (Bytes.of_string "tiny");
      Host_model.poll host;
      (match Driver.poll drv with
      | Some f -> Alcotest.(check int) (name ^ ": clamped to capacity") 4096 (Bytes.length f)
      | None -> Alcotest.fail (name ^ ": frame lost"));
      Alcotest.(check int) (name ^ ": clamp counted") 1
        (Ring.counters (Driver.rx_ring drv)).Ring.len_clamped)
    [ ("copy", Config.Copy_in); ("revoke", Config.Revoke) ]

let test_bad_index_masked_in_pool_mode () =
  let drv, host, _ = make ~cfg:pool_cfg () in
  Host_model.inject host (Host_model.Bad_index 99999);
  Host_model.deliver_rx host (Bytes.of_string "x");
  Host_model.poll host;
  (match Driver.poll drv with
  | Some _ | None -> ()  (* either way: no exception, no escape *));
  Alcotest.(check bool) "mask counted" ((Ring.counters (Driver.rx_ring drv)).Ring.index_masked > 0)
    true

let test_garbage_state_skipped () =
  let drv, host, _ = make () in
  Host_model.inject host (Host_model.Garbage_state 0xDEAD);
  Host_model.deliver_rx host (Bytes.of_string "x");
  Host_model.poll host;
  ignore (Driver.poll drv);
  ignore (Driver.poll drv);
  Alcotest.(check int) "skipped exactly once" 1
    (Ring.counters (Driver.rx_ring drv)).Ring.state_skipped

let test_queued_faults_land_in_injection_order () =
  (* One header fault per produced slot, oldest first: the state lie hits
     the first message (skipped), the length lie the second (clamped). *)
  let drv, host, _ = make () in
  Host_model.inject host (Host_model.Garbage_state 7);
  Host_model.inject host (Host_model.Lie_len 6000);
  Host_model.deliver_rx host (Bytes.of_string "first");
  Host_model.deliver_rx host (Bytes.of_string "second");
  Host_model.poll host;
  let survivors = List.filter_map (fun () -> Driver.poll drv) [ (); (); (); () ] in
  let c = Ring.counters (Driver.rx_ring drv) in
  Alcotest.(check int) "first message skipped" 1 c.Ring.state_skipped;
  Alcotest.(check int) "second message clamped" 1 c.Ring.len_clamped;
  Alcotest.(check (list string)) "only the second survives" [ "second" ]
    (List.map (fun f -> Bytes.sub_string f 0 (min 6 (Bytes.length f))) survivors)

let test_race_header_defeated_by_single_fetch () =
  let drv, host, _ = make () in
  Host_model.inject host (Host_model.Race_header 100000);
  Host_model.deliver_rx host (Bytes.make 100 'r');
  Host_model.poll host;
  match Driver.poll drv with
  | Some f -> Alcotest.(check int) "honest length used" 100 (Bytes.length f)
  | None -> Alcotest.fail "frame lost"

let test_dataflow_survives_attack_burst () =
  (* After a burst of hostile slots, honest traffic still flows: no error
     path, no stuck state. *)
  let drv, host, _ = make () in
  Host_model.inject host (Host_model.Lie_len 999999);
  Host_model.inject host (Host_model.Garbage_state 7);
  Host_model.inject host (Host_model.Bad_index 31337);
  for i = 1 to 10 do
    Host_model.deliver_rx host (Bytes.of_string (Printf.sprintf "m%d" i))
  done;
  Host_model.poll host;
  let got = ref 0 in
  for _ = 1 to 20 do
    match Driver.poll drv with Some _ -> incr got | None -> ()
  done;
  Alcotest.(check bool) "most messages still delivered" (!got >= 8) true

let test_corrupt_payload_confined_to_l2 () =
  (* L2 neither can nor must detect payload corruption — it delivers the
     corrupted bytes verbatim (same length) and the L5 AEAD rejects them. *)
  let drv, host, _ = make () in
  Host_model.inject host Host_model.Corrupt_payload;
  Host_model.deliver_rx host (Bytes.of_string "payload-bytes");
  Host_model.poll host;
  match Driver.poll drv with
  | Some f ->
      Alcotest.(check int) "length preserved" 13 (Bytes.length f);
      Alcotest.(check bool) "content corrupted" false
        (Bytes.equal f (Bytes.of_string "payload-bytes"))
  | None -> Alcotest.fail "frame lost"

let test_corrupt_payload_rest_of_poll_per_frame () =
  (* A queued per-frame misbehaviour puts the whole poll on batches of
     one: the first frame takes the detour, the rest follow intact and in
     order, each produced in its own unamortized ring crossing. *)
  let drv, host, _ = make () in
  let frames = [ "frame-1"; "frame-2"; "frame-3" ] in
  Host_model.inject host Host_model.Corrupt_payload;
  List.iter (fun f -> Host_model.deliver_rx host (Bytes.of_string f)) frames;
  Host_model.poll host;
  let flip_first = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 0xFF) else c) in
  Alcotest.(check (list string)) "frame 1 corrupted, frames 2-3 intact, in order"
    [ flip_first "frame-1"; "frame-2"; "frame-3" ]
    (List.map Bytes.to_string (Driver.poll_burst ~max:64 drv));
  (* Reference host work: one empty TX drain, then three single-slot
     produces. *)
  let reference = Driver.create ~name:"reference" inline_cfg in
  ignore (Ring.try_consume ~pool:(Driver.pool reference) (Driver.tx_ring reference));
  List.iter
    (fun f -> ignore (Ring.try_produce (Driver.rx_ring reference) (Bytes.of_string f)))
    frames;
  Alcotest.(check int) "host meter = three unamortized produces"
    (Cost.total (Driver.host_meter reference))
    (Cost.total (Driver.host_meter drv))

let test_replay_slot_duplicate_delivery () =
  (* A replayed slot is indistinguishable from the host licitly delivering
     the same bytes twice: both copies arrive, and deduplication is the
     L5 record layer's job. *)
  let drv, host, _ = make () in
  Host_model.inject host Host_model.Replay_slot;
  Host_model.deliver_rx host (Bytes.of_string "once");
  Host_model.poll host;
  (match Driver.poll drv with
  | Some f -> Helpers.check_bytes "first copy" (Bytes.of_string "once") f
  | None -> Alcotest.fail "first copy lost");
  match Driver.poll drv with
  | Some f -> Helpers.check_bytes "replayed copy" (Bytes.of_string "once") f
  | None -> Alcotest.fail "replay not delivered"

let test_stall_services_nothing () =
  let drv, host, sent = make () in
  Host_model.inject host (Host_model.Stall 3);
  ignore (Driver.transmit drv (Bytes.of_string "tx"));
  Host_model.deliver_rx host (Bytes.of_string "rx");
  for _ = 1 to 3 do Host_model.poll host done;
  Alcotest.(check int) "nothing forwarded while stalled" 0 (List.length !sent);
  Alcotest.(check int) "nothing produced while stalled" 0
    (Ring.counters (Driver.rx_ring drv)).Ring.produced;
  Host_model.poll host;
  Alcotest.(check int) "tx flows after stall" 1 (List.length !sent);
  match Driver.poll drv with
  | Some f -> Helpers.check_bytes "rx flows after stall" (Bytes.of_string "rx") f
  | None -> Alcotest.fail "rx lost after stall"

let test_silent_drop_no_ring_activity () =
  let drv, host, _ = make () in
  Host_model.inject host (Host_model.Silent_drop 2);
  Host_model.deliver_rx host (Bytes.of_string "a");
  Host_model.deliver_rx host (Bytes.of_string "b");
  Host_model.deliver_rx host (Bytes.of_string "c");
  Host_model.poll host;
  Alcotest.(check int) "drops counted" 2 (Host_model.stats host).Host_model.rx_dropped;
  Alcotest.(check int) "dropped frames leave no ring trace" 1
    (Ring.counters (Driver.rx_ring drv)).Ring.produced;
  match Driver.poll drv with
  | Some f -> Helpers.check_bytes "survivor delivered" (Bytes.of_string "c") f
  | None -> Alcotest.fail "survivor lost"

let test_ring_freeze_tx_progresses_rx_withheld () =
  let drv, host, sent = make () in
  Host_model.inject host (Host_model.Ring_freeze 2);
  ignore (Driver.transmit drv (Bytes.of_string "tx"));
  Host_model.deliver_rx host (Bytes.of_string "rx");
  Host_model.poll host;
  Alcotest.(check int) "tx drained during freeze" 1 (List.length !sent);
  Alcotest.(check int) "rx withheld during freeze" 0
    (Ring.counters (Driver.rx_ring drv)).Ring.produced;
  Host_model.poll host;
  Host_model.poll host;
  match Driver.poll drv with
  | Some f -> Helpers.check_bytes "rx flows after freeze" (Bytes.of_string "rx") f
  | None -> Alcotest.fail "rx lost after freeze"

(* Pages the guest has revoked are unmapped from the host's view: a host
   poll that runs into them counts a fault and raises nothing, and the
   frame it was producing is lost like a cable pull. *)
let test_host_fault_absorbed () =
  let drv, host, _ = make () in
  let off, len = Ring.data_arena (Driver.rx_ring drv) in
  Region.unshare_range (Driver.region drv) ~off ~len;
  Host_model.deliver_rx host (Bytes.of_string "into a revoked arena");
  Host_model.poll host;
  Alcotest.(check int) "fault counted" 1 (Host_model.stats host).Host_model.faults;
  Alcotest.(check int) "frame lost" 0 (Host_model.pending_rx_count host)

(* --- watchdog ----------------------------------------------------------- *)

let make_watched ?(poll_budget = 8) () =
  let drv, host, sent = make () in
  (drv, host, sent, Watchdog.create ~poll_budget drv)

let test_watchdog_no_false_positive () =
  let drv, host, _, wd = make_watched () in
  for i = 1 to 100 do
    ignore (Driver.transmit drv (Bytes.of_string (Printf.sprintf "f%d" i)));
    Host_model.deliver_rx host (Bytes.of_string "back");
    Host_model.poll host;
    ignore (Driver.poll drv);
    Watchdog.tick wd ~expecting_rx:true
  done;
  Alcotest.(check int) "no resets under benign traffic" 0 (Watchdog.stalls_detected wd);
  Alcotest.(check int) "same rings throughout" 0 (Driver.generation drv)

let test_watchdog_detects_tx_stall () =
  let drv, host, sent, wd = make_watched () in
  Host_model.inject host (Host_model.Stall 1_000_000);
  ignore (Driver.transmit drv (Bytes.of_string "stuck"));
  let gen0 = Driver.generation drv in
  for _ = 1 to 9 do
    Host_model.poll host;
    Watchdog.tick wd ~expecting_rx:false
  done;
  Alcotest.(check int) "stall detected" 1 (Watchdog.stalls_detected wd);
  Alcotest.(check bool) "generation bumped" true (Driver.generation drv > gen0);
  Alcotest.(check int) "nothing leaked out meanwhile" 0 (List.length !sent)

let test_watchdog_detects_ring_freeze () =
  (* A frozen ring keeps consuming TX, so only the RX deadline — armed by
     the caller's declaration that a response is owed — can catch it. *)
  let _drv, host, _, wd = make_watched () in
  Host_model.inject host (Host_model.Ring_freeze 1_000_000);
  for _ = 1 to 9 do
    Host_model.poll host;
    Watchdog.tick wd ~expecting_rx:true
  done;
  Alcotest.(check int) "freeze detected via rx deadline" 1 (Watchdog.stalls_detected wd)

let test_watchdog_backoff_doubles_and_caps () =
  let drv, host, _, wd = make_watched ~poll_budget:2 () in
  Host_model.inject host (Host_model.Stall 200);
  let seen = ref [] in
  for _ = 1 to 200 do
    Host_model.poll host;
    Watchdog.tick wd ~expecting_rx:true;
    seen := Watchdog.current_backoff wd :: !seen
  done;
  let resets = Watchdog.stalls_detected wd in
  Alcotest.(check bool) "several resets, not one per budget" true (resets >= 3 && resets < 50);
  Alcotest.(check int) "one generation per reset" resets (Driver.generation drv);
  Alcotest.(check bool) "backoff grew" true (List.exists (fun b -> b >= 8) !seen);
  Alcotest.(check bool) "backoff capped at 32" true (List.for_all (fun b -> b <= 32) !seen);
  (* The stall has expired by now; progress resets the multiplier. *)
  Host_model.deliver_rx host (Bytes.of_string "alive");
  Host_model.poll host;
  Watchdog.tick wd ~expecting_rx:false;
  Alcotest.(check int) "backoff back to 1 after progress" 1 (Watchdog.current_backoff wd)

let prop_untrusted_len_never_escapes =
  QCheck.Test.make ~name:"untrusted length never exceeds capacity" ~count:100
    QCheck.(int_bound 10_000_000)
    (fun lie ->
      let drv, host, _ = make () in
      Host_model.inject host (Host_model.Lie_len lie);
      Host_model.deliver_rx host (Bytes.of_string "p");
      Host_model.poll host;
      match Driver.poll drv with
      | Some f -> Bytes.length f <= Ring.capacity (Driver.rx_ring drv)
      | None -> true)

let prop_untrusted_index_confined =
  QCheck.Test.make ~name:"untrusted pool index aliases a valid unit" ~count:100
    QCheck.(int_bound 10_000_000)
    (fun idx ->
      let drv, host, _ = make ~cfg:pool_cfg () in
      Host_model.inject host (Host_model.Bad_index idx);
      Host_model.deliver_rx host (Bytes.of_string "p");
      Host_model.poll host;
      match Driver.poll drv with
      | Some _ -> true  (* delivered something from *inside* the arena *)
      | None -> true
      | exception _ -> false)

(* Model-based property: arbitrary interleavings of driver traffic, host
   traffic and host sabotage never raise, never deliver oversized
   payloads, and keep the counters coherent. This is "safe by
   construction" phrased as an executable invariant. *)
let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun n -> `Tx (1 + (n mod 2047))) small_nat);
        (4, map (fun n -> `Rx (1 + (n mod 2047))) small_nat);
        (3, return `Guest_poll);
        (3, return `Host_poll);
        (1, map (fun v -> `Sab_lie v) (int_bound 1_000_000));
        (1, map (fun v -> `Sab_index v) (int_bound 1_000_000));
        (1, map (fun v -> `Sab_state v) (int_bound 0xFFFF));
        (1, return `Sab_replay);
      ])

let op_print = function
  | `Tx n -> Printf.sprintf "Tx %d" n
  | `Rx n -> Printf.sprintf "Rx %d" n
  | `Guest_poll -> "Guest_poll"
  | `Host_poll -> "Host_poll"
  | `Sab_lie v -> Printf.sprintf "Sab_lie %d" v
  | `Sab_index v -> Printf.sprintf "Sab_index %d" v
  | `Sab_state v -> Printf.sprintf "Sab_state %d" v
  | `Sab_replay -> "Sab_replay"

let prop_ring_model_based =
  QCheck.Test.make ~name:"arbitrary op/sabotage interleavings stay confined" ~count:120
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map op_print ops))
       QCheck.Gen.(list_size (int_range 1 80) op_gen))
    (fun ops ->
      let drv, host, _ = make () in
      let cap = Ring.capacity (Driver.rx_ring drv) in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Tx n -> ignore (Driver.transmit drv (Bytes.make n 't'))
          | `Rx n -> Host_model.deliver_rx host (Bytes.make n 'r')
          | `Guest_poll -> (
              match Driver.poll drv with
              | Some f -> if Bytes.length f > cap then ok := false
              | None -> ())
          | `Host_poll -> Host_model.poll host
          | `Sab_lie v -> Host_model.inject host (Host_model.Lie_len v)
          | `Sab_index v -> Host_model.inject host (Host_model.Bad_index v)
          | `Sab_state v -> Host_model.inject host (Host_model.Garbage_state v)
          | `Sab_replay -> Host_model.inject host Host_model.Replay_slot)
        ops;
      let ctx = Ring.counters (Driver.tx_ring drv) and crx = Ring.counters (Driver.rx_ring drv) in
      !ok
      && ctx.Ring.consumed <= ctx.Ring.produced
      && crx.Ring.consumed <= crx.Ring.produced)

(* Hot swap / watchdog reset under arbitrary interleavings: every ring
   generation independently keeps its invariants (masked indices keep
   delivered lengths within capacity, cursors stay coherent), generations
   only move forward, and no slot is ever reused across a swap — the old
   region is revoked wholesale, so post-swap host access faults rather
   than aliasing the new rings' slots. *)
let swap_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun n -> `Tx (1 + (n mod 2047))) small_nat);
        (4, map (fun n -> `Rx (1 + (n mod 2047))) small_nat);
        (3, return `Guest_poll);
        (3, return `Host_poll);
        (1, return `Swap);
        (1, map (fun n -> `Stall (1 + (n mod 30))) small_nat);
        (1, map (fun v -> `Sab_lie v) (int_bound 1_000_000));
      ])

let swap_op_print = function
  | `Tx n -> Printf.sprintf "Tx %d" n
  | `Rx n -> Printf.sprintf "Rx %d" n
  | `Guest_poll -> "Guest_poll"
  | `Host_poll -> "Host_poll"
  | `Swap -> "Swap"
  | `Stall n -> Printf.sprintf "Stall %d" n
  | `Sab_lie v -> Printf.sprintf "Sab_lie %d" v

let prop_hot_swap_preserves_invariants =
  QCheck.Test.make ~name:"hot swap under random ops preserves ring invariants" ~count:100
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map swap_op_print ops))
       QCheck.Gen.(list_size (int_range 1 60) swap_op_gen))
    (fun ops ->
      let drv, host, _ = make () in
      let wd = Watchdog.create ~poll_budget:4 drv in
      let cap = Ring.capacity (Driver.rx_ring drv) in
      let ok = ref true in
      let last_gen = ref (Driver.generation drv) in
      List.iter
        (fun op ->
          (match op with
          | `Tx n -> ignore (Driver.transmit drv (Bytes.make n 't'))
          | `Rx n -> Host_model.deliver_rx host (Bytes.make n 'r')
          | `Guest_poll -> (
              match Driver.poll drv with
              | Some f -> if Bytes.length f > cap then ok := false
              | None -> ())
          | `Host_poll -> Host_model.poll host
          | `Swap ->
              let old_region = Driver.region drv in
              let off, _ = Ring.data_arena (Driver.rx_ring drv) in
              Driver.hot_swap drv;
              (* No slot reuse across generations: the pre-swap region is
                 dead to the host, not aliased into the new rings. *)
              (match Region.host_read old_region ~off ~len:16 with
              | _ -> ok := false
              | exception Region.Fault _ -> ())
          | `Stall n -> Host_model.inject host (Host_model.Stall n)
          | `Sab_lie v -> Host_model.inject host (Host_model.Lie_len v));
          Watchdog.tick wd ~expecting_rx:(Host_model.pending_rx_count host > 0);
          let g = Driver.generation drv in
          if g < !last_gen then ok := false;
          last_gen := g;
          let ctx = Ring.counters (Driver.tx_ring drv)
          and crx = Ring.counters (Driver.rx_ring drv) in
          if ctx.Ring.consumed > ctx.Ring.produced || crx.Ring.consumed > crx.Ring.produced
          then ok := false)
        ops;
      !ok)

(* Region protection through a driver's life: revoke-mode RX traffic,
   direct share/unshare and hot swaps. After every step, [range_shared]
   on the live region and on every retired one (fully revoked by the
   swap) agrees with a page-by-page scan. *)
let prop_range_shared_across_hot_swap =
  QCheck.Test.make ~name:"range_shared == page scan across traffic, revocation and hot swap"
    ~count:60
    (QCheck.make
       ~print:(fun (ops, _) ->
         String.concat "; "
           (List.map
              (function
                | `Rx n -> Printf.sprintf "Rx %d" n
                | `Guest_poll -> "Guest_poll"
                | `Host_poll -> "Host_poll"
                | `Share (a, b) -> Printf.sprintf "Share (%d,%d)" a b
                | `Unshare (a, b) -> Printf.sprintf "Unshare (%d,%d)" a b
                | `Swap -> "Swap")
              ops))
       QCheck.Gen.(
         pair
           (list_size (int_range 1 40)
              (frequency
                 [
                   (3, map (fun n -> `Rx (1 + (n mod 2047))) small_nat);
                   (3, return `Guest_poll);
                   (3, return `Host_poll);
                   (2, map (fun r -> `Share r) (pair nat nat));
                   (2, map (fun r -> `Unshare r) (pair nat nat));
                   (1, return `Swap);
                 ]))
           Helpers.range_query_gen))
    (fun (ops, queries) ->
      let drv, host, _ = make ~cfg:{ inline_cfg with Config.rx_strategy = Config.Revoke } () in
      let retired = ref [] in
      List.for_all
        (fun op ->
          let r = Driver.region drv in
          (match op with
          | `Rx n -> Host_model.deliver_rx host (Bytes.make n 'r')
          | `Guest_poll -> ignore (Driver.poll drv)
          | `Host_poll -> Host_model.poll host
          | `Share q ->
              let off, len = Helpers.clamp_range r q in
              Region.share_range r ~off ~len
          | `Unshare q ->
              let off, len = Helpers.clamp_range r q in
              Region.unshare_range r ~off ~len
          | `Swap ->
              Driver.hot_swap drv;
              retired := r :: !retired);
          List.for_all
            (fun r -> Helpers.range_shared_agrees r queries)
            (Driver.region drv :: !retired))
        ops)

(* --- batched datapath --------------------------------------------------- *)

let frames_of strings = Array.of_list (List.map Bytes.of_string strings)

let test_burst_roundtrip () =
  let drv, host, sent = make () in
  let tx = frames_of [ "b-one"; "b-two"; "b-three"; "b-four" ] in
  Alcotest.(check int) "all accepted" 4 (Driver.transmit_burst drv tx);
  Host_model.poll host;
  Alcotest.(check int) "all forwarded" 4 (List.length !sent);
  List.iteri
    (fun i f -> Helpers.check_bytes (Printf.sprintf "tx order %d" i) tx.(i) f)
    (List.rev !sent);
  for i = 1 to 4 do
    Host_model.deliver_rx host (Bytes.of_string (Printf.sprintf "rx-%d" i))
  done;
  Host_model.poll host;
  let got = Driver.poll_burst ~max:64 drv in
  Alcotest.(check int) "all drained in one burst" 4 (List.length got);
  List.iteri
    (fun i f -> Helpers.check_bytes "rx fifo" (Bytes.of_string (Printf.sprintf "rx-%d" (i + 1))) f)
    got

let test_burst_doorbell_coalesced () =
  let cfg = { inline_cfg with Config.use_notifications = true } in
  let drv, _, _ = make ~cfg () in
  let coalesced = Cio_telemetry.Metrics.counter Cio_telemetry.Metrics.default
      "driver.doorbells_coalesced" in
  let before = Cio_telemetry.Metrics.counter_value coalesced in
  let n = Driver.transmit_burst drv (Array.init 16 (fun i -> Bytes.make (64 + i) 'd')) in
  Alcotest.(check int) "all placed" 16 n;
  Alcotest.(check int) "one doorbell for the whole burst" 1
    (Cost.count_of (Driver.guest_meter drv) Cost.Notification);
  Alcotest.(check int) "15 kicks coalesced away" 15
    (Cio_telemetry.Metrics.counter_value coalesced - before)

let test_burst_stops_at_full_ring () =
  let cfg = { inline_cfg with Config.ring_slots = 8 } in
  let drv, _, _ = make ~cfg () in
  let n = Driver.transmit_burst drv (Array.init 20 (fun _ -> Bytes.make 32 'f')) in
  Alcotest.(check int) "bounded by ring size" 8 n;
  Alcotest.(check bool) "miss counted" true
    ((Ring.counters (Driver.tx_ring drv)).Ring.full_misses > 0)

let test_malformed_slot_inside_burst () =
  (* One garbage slot in the middle of a batch is skipped-and-counted;
     the rest of the batch flows through the same poll_burst call. *)
  let drv, host, _ = make () in
  Host_model.inject host (Host_model.Garbage_state 0xBAD);
  for i = 1 to 5 do
    Host_model.deliver_rx host (Bytes.of_string (Printf.sprintf "m-%d" i))
  done;
  Host_model.poll host;
  let got = Driver.poll_burst ~max:64 drv in
  Alcotest.(check int) "survivors delivered" 4 (List.length got);
  Alcotest.(check int) "skip counted once" 1
    (Ring.counters (Driver.rx_ring drv)).Ring.state_skipped;
  List.iteri
    (fun i f -> Helpers.check_bytes "order preserved" (Bytes.of_string (Printf.sprintf "m-%d" (i + 2))) f)
    got

let test_revoke_burst_roundtrip () =
  let cfg = { inline_cfg with Config.rx_strategy = Config.Revoke } in
  let drv, host, _ = make ~cfg () in
  for i = 1 to 6 do
    Host_model.deliver_rx host (Bytes.of_string (Printf.sprintf "rv-%d" i))
  done;
  Host_model.poll host;
  let unshares_before = Cost.count_of (Driver.guest_meter drv) Cost.Unshare in
  let got = Driver.poll_burst ~max:64 drv in
  Alcotest.(check int) "all drained" 6 (List.length got);
  List.iteri
    (fun i f -> Helpers.check_bytes "revoke fifo" (Bytes.of_string (Printf.sprintf "rv-%d" (i + 1))) f)
    got;
  Alcotest.(check int) "one shootdown for the whole span" 1
    (Cost.count_of (Driver.guest_meter drv) Cost.Unshare - unshares_before)

let test_revoke_poll_returns_stable_snapshot () =
  (* Regression: a frame handed out by [poll] in Revoke mode must be an
     owned snapshot — not aliased to ring pages the host rewrites, nor to
     pool pages reclaimed by later traffic. *)
  let cfg = { inline_cfg with Config.rx_strategy = Config.Revoke } in
  let drv, host, _ = make ~cfg () in
  Host_model.deliver_rx host (Bytes.of_string "stable-snapshot");
  Host_model.poll host;
  let held =
    match Driver.poll drv with Some f -> f | None -> Alcotest.fail "no rx"
  in
  (* Reuse every slot and churn the pool: the held frame must not move. *)
  for round = 1 to 3 do
    for i = 1 to Config.default.Config.ring_slots do
      Host_model.deliver_rx host (Bytes.make 15 (Char.chr (64 + ((round + i) mod 26))))
    done;
    Host_model.poll host;
    List.iter (Driver.recycle drv) (Driver.poll_burst drv ~max:Config.default.Config.ring_slots)
  done;
  Helpers.check_bytes "held frame unchanged" (Bytes.of_string "stable-snapshot") held

let test_steady_state_zero_fresh_allocations () =
  (* The allocation-free claim: once the pool is warm, an L2 echo loop
     performs zero fresh Bytes allocations per frame on the driver side. *)
  let drv, host, _ = make () in
  let payload = Bytes.make 512 'p' in
  let batch = Array.make 8 payload in
  let round () =
    ignore (Driver.transmit_burst drv batch);
    Host_model.poll host;
    for _ = 1 to 8 do Host_model.deliver_rx host (Bytes.copy payload) done;
    Host_model.poll host;
    List.iter (Driver.recycle drv) (Driver.poll_burst ~max:64 drv)
  in
  for _ = 1 to 4 do round () done;
  let fresh0 = (Bufpool.stats (Driver.pool drv)).Bufpool.fresh in
  for _ = 1 to 16 do round () done;
  Alcotest.(check int) "zero fresh allocations after warm-up" fresh0
    (Bufpool.stats (Driver.pool drv)).Bufpool.fresh

(* --- multiqueue steering ------------------------------------------------ *)

let test_queue_for_pow2_mask () =
  let mq = Multiqueue.create ~name:"mq4" ~queues:4 inline_cfg in
  Alcotest.(check int) "masked" 1 (Multiqueue.queue_for mq ~flow_hash:5);
  Alcotest.(check int) "negative hash masked into range" ((-7) land 3)
    (Multiqueue.queue_for mq ~flow_hash:(-7));
  List.iter
    (fun h ->
      let q = Multiqueue.queue_for mq ~flow_hash:h in
      Alcotest.(check bool) "in range" true (q >= 0 && q < 4))
    [ 0; 1; 17; -1; -64; max_int; min_int ]

let test_queue_for_non_pow2 () =
  (* Three queues: the old pow2 mask would compute [hash land 2] and both
     strand queue 1 and map negative hashes out of range. *)
  let mq = Multiqueue.create ~name:"mq3" ~queues:3 inline_cfg in
  Alcotest.(check int) "7 mod 3" 1 (Multiqueue.queue_for mq ~flow_hash:7);
  Alcotest.(check int) "negative hash stays in range" 1 (Multiqueue.queue_for mq ~flow_hash:(-5));
  let hits = Array.make 3 0 in
  for h = 0 to 29 do
    let q = Multiqueue.queue_for mq ~flow_hash:h in
    Alcotest.(check bool) "in range" true (q >= 0 && q < 3);
    hits.(q) <- hits.(q) + 1
  done;
  Array.iteri
    (fun i n -> Alcotest.(check int) (Printf.sprintf "queue %d reachable" i) 10 n)
    hits;
  List.iter
    (fun h ->
      let q = Multiqueue.queue_for mq ~flow_hash:h in
      Alcotest.(check bool) "extreme hash in range" true (q >= 0 && q < 3))
    [ max_int; min_int; -1 ]

let test_multiqueue_transmit_matches_steering () =
  let mq = Multiqueue.create ~name:"mq-steer" ~queues:3 inline_cfg in
  List.iter
    (fun h ->
      let q = Multiqueue.queue_for mq ~flow_hash:h in
      let before = Driver.tx_frames (Multiqueue.queue mq q) in
      Alcotest.(check bool) "accepted" true (Multiqueue.transmit mq ~flow_hash:h (Bytes.make 64 's'));
      Alcotest.(check int) "landed on the steered queue" (before + 1)
        (Driver.tx_frames (Multiqueue.queue mq q)))
    [ 0; 1; 2; 7; -5; max_int ]

(* --- batched-path properties -------------------------------------------- *)

(* A burst of one is *exactly* the single-slot ring operation, on both
   sides of the ring: every call returns the same thing and leaves the
   guest meter where the other entry point leaves it (cycles and event
   counts per category), and the counters and host meter end the same —
   including when the host lies about a length or leaves a malformed slot
   ahead of a valid one, which both skip without ending the call. The RX
   side is received through the driver, so under Copy_in it is
   [try_consume] against [try_consume_burst_into ~max:1] and under Revoke
   the one-slot revocation run of both receive entry points. *)
let burst_of_one_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun n -> `Tx (1 + (n mod 2047))) small_nat);
        (2, return `Host_poll);
        (3, map (fun n -> `Rx (1 + (n mod 2047))) small_nat);
        (1, map (fun v -> `Rx_lie v) (int_range 1 100_000));
        (1, map (fun v -> `Rx_bad_state v) (int_range 2 0xFFFF));
        (1, return `Rx_zero_len);
        (4, return `Guest_poll);
      ])

let burst_of_one_op_print = function
  | `Tx n -> Printf.sprintf "Tx %d" n
  | `Host_poll -> "Host_poll"
  | `Rx n -> Printf.sprintf "Rx %d" n
  | `Rx_lie v -> Printf.sprintf "Rx_lie %d" v
  | `Rx_bad_state v -> Printf.sprintf "Rx_bad_state %d" v
  | `Rx_zero_len -> "Rx_zero_len"
  | `Guest_poll -> "Guest_poll"

let prop_burst_of_one_equals_single_slot =
  QCheck.Test.make ~name:"burst of one ≡ single-slot (counters and cost)" ~count:60
    (QCheck.pair
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map burst_of_one_op_print ops))
          QCheck.Gen.(list_size (int_range 1 40) burst_of_one_op_gen))
       QCheck.bool)
    (fun (ops, revoke) ->
      let rx_strategy = if revoke then Config.Revoke else Config.Copy_in in
      let run ~burst =
        let drv = Driver.create ~name:"burst-of-one" { inline_cfg with Config.rx_strategy } in
        let tx = Driver.tx_ring drv and rx = Driver.rx_ring drv in
        let pool = Cio_mem.Bufpool.create () in
        let produce r payload =
          if burst then Ring.try_produce_burst r [| payload |] ~len:1 = 1 else Ring.try_produce r payload
        in
        (* Host scribbles over a header word of the RX slot it just filled. *)
        let scribble field v =
          let slot = ((Ring.counters rx).Ring.produced - 1) land (Ring.slots rx - 1) in
          Region.write_u32 (Driver.region drv) Region.Host
            ~off:(Ring.header_offset rx slot + field) v
        in
        let produce_rx n = produce rx (Bytes.make n 'r') in
        let meter m =
          List.concat_map (fun c -> [ Cost.cycles_of m c; Cost.count_of m c ]) Cost.all_categories
        in
        let call op =
          let result =
            match op with
            | `Tx n -> [ string_of_bool (produce tx (Bytes.make n 't')) ]
            | `Host_poll ->
                if burst then begin
                  let dst = [| Bytes.empty |] in
                  Array.to_list
                    (Array.map Bytes.to_string
                       (Array.sub dst 0 (Ring.try_consume_burst_into ~pool tx dst ~max:1)))
                end
                else List.map Bytes.to_string (Option.to_list (Ring.try_consume ~pool tx))
            | `Rx n -> [ string_of_bool (produce_rx n) ]
            | `Rx_lie v ->
                let ok = produce_rx 64 in
                if ok then scribble 4 v;
                [ string_of_bool ok ]
            | `Rx_bad_state v ->
                let ok = produce_rx 64 in
                if ok then scribble 0 v;
                [ string_of_bool ok ]
            | `Rx_zero_len ->
                let ok = produce_rx 64 in
                if ok then scribble 4 0;
                [ string_of_bool ok ]
            | `Guest_poll ->
                let got =
                  if burst then Driver.poll_burst ~max:1 drv else Option.to_list (Driver.poll drv)
                in
                List.map Bytes.to_string got
          in
          (result, meter (Driver.guest_meter drv))
        in
        let calls = List.map call ops in
        let counters r =
          let k = Ring.counters r in
          Ring.
            [
              k.produced; k.consumed; k.full_misses; k.empty_polls; k.len_clamped; k.index_masked;
              k.state_skipped;
            ]
        in
        (calls, (counters tx, counters rx), meter (Driver.host_meter drv))
      in
      run ~burst:true = run ~burst:false)

let prop_burst_fifo_exactly_once =
  (* Whatever mix of burst sizes the producer uses, every frame comes out
     exactly once, in order. *)
  QCheck.Test.make ~name:"bursts deliver FIFO, exactly once" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 8) (int_range 1 16))
    (fun burst_sizes ->
      let drv, host, _ = make () in
      let seq = ref 0 in
      let expected = ref [] in
      let ok = ref true in
      List.iter
        (fun k ->
          let frames =
            Array.init k (fun _ ->
                incr seq;
                Bytes.of_string (Printf.sprintf "frame-%03d" !seq))
          in
          Array.iter (fun f -> expected := Bytes.copy f :: !expected) frames;
          Array.iter (fun f -> Host_model.deliver_rx host f) frames;
          Host_model.poll host;
          let got = Driver.poll_burst drv ~max:k in
          if List.length got <> k then ok := false;
          List.iteri
            (fun i f ->
              let e = List.nth (List.rev !expected) (!seq - k + i) in
              if not (Bytes.equal e f) then ok := false)
            got)
        burst_sizes;
      !ok && (Ring.counters (Driver.rx_ring drv)).Ring.consumed = !seq)

let suite =
  [
    Alcotest.test_case "layout: power-of-two enforced" `Quick test_layout_power_of_two_enforced;
    Alcotest.test_case "layout: arena aligned" `Quick test_layout_arena_aligned;
    Alcotest.test_case "inline: roundtrip" `Quick test_inline_roundtrip;
    Alcotest.test_case "pool: roundtrip" `Quick test_pool_roundtrip;
    Alcotest.test_case "indirect: roundtrip" `Quick test_indirect_roundtrip;
    Alcotest.test_case "ring: 500 frames, wraps" `Quick test_sustained_traffic_wraps;
    Alcotest.test_case "ring: backpressure when full" `Quick test_ring_full_backpressure;
    Alcotest.test_case "ring: oversized payload rejected" `Quick test_oversized_payload_rejected;
    Alcotest.test_case "revoke: roundtrip + costs" `Quick test_revoke_strategy_roundtrip;
    Alcotest.test_case "revoke: host locked out while held" `Quick test_revoked_page_blocks_host;
    Alcotest.test_case "copy: charged" `Quick test_copy_strategy_charges_copy;
    Alcotest.test_case "header: single fetch by construction" `Quick test_single_fetch_header;
    Alcotest.test_case "polling: no notifications by default" `Quick test_no_notifications_by_default;
    Alcotest.test_case "polling: optional doorbell" `Quick test_notifications_optional;
    Alcotest.test_case "hostile: lie-len confined" `Quick test_lie_len_confined;
    Alcotest.test_case "hostile: bad index masked" `Quick test_bad_index_masked_in_pool_mode;
    Alcotest.test_case "hostile: garbage state skipped" `Quick test_garbage_state_skipped;
    Alcotest.test_case "hostile: queued faults land in injection order" `Quick
      test_queued_faults_land_in_injection_order;
    Alcotest.test_case "hostile: header race defeated" `Quick test_race_header_defeated_by_single_fetch;
    Alcotest.test_case "hostile: dataflow survives burst" `Quick test_dataflow_survives_attack_burst;
    Alcotest.test_case "hostile: corrupt payload confined to L2" `Quick
      test_corrupt_payload_confined_to_l2;
    Alcotest.test_case "hostile: corrupt payload, rest of poll per frame" `Quick
      test_corrupt_payload_rest_of_poll_per_frame;
    Alcotest.test_case "host: delivered buffer reused for TX" `Quick
      test_host_reuses_delivered_buffer;
    Alcotest.test_case "hostile: replay slot delivered twice" `Quick
      test_replay_slot_duplicate_delivery;
    Alcotest.test_case "hostile: stall services nothing" `Quick test_stall_services_nothing;
    Alcotest.test_case "hostile: silent drop leaves no ring trace" `Quick
      test_silent_drop_no_ring_activity;
    Alcotest.test_case "hostile: ring freeze is one-directional" `Quick
      test_ring_freeze_tx_progresses_rx_withheld;
    Alcotest.test_case "host: revoked arena fault absorbed" `Quick test_host_fault_absorbed;
    Alcotest.test_case "watchdog: no false positives" `Quick test_watchdog_no_false_positive;
    Alcotest.test_case "watchdog: tx stall detected" `Quick test_watchdog_detects_tx_stall;
    Alcotest.test_case "watchdog: ring freeze detected" `Quick test_watchdog_detects_ring_freeze;
    Alcotest.test_case "watchdog: exponential backoff" `Quick
      test_watchdog_backoff_doubles_and_caps;
    Alcotest.test_case "burst: roundtrip FIFO" `Quick test_burst_roundtrip;
    Alcotest.test_case "burst: doorbell coalesced" `Quick test_burst_doorbell_coalesced;
    Alcotest.test_case "burst: stops at full ring" `Quick test_burst_stops_at_full_ring;
    Alcotest.test_case "burst: malformed slot skipped mid-batch" `Quick
      test_malformed_slot_inside_burst;
    Alcotest.test_case "burst: revoke drains span under one shootdown" `Quick
      test_revoke_burst_roundtrip;
    Alcotest.test_case "revoke: poll returns stable snapshot" `Quick
      test_revoke_poll_returns_stable_snapshot;
    Alcotest.test_case "pool: steady state allocates nothing" `Quick
      test_steady_state_zero_fresh_allocations;
    Alcotest.test_case "multiqueue: pow2 steering mask" `Quick test_queue_for_pow2_mask;
    Alcotest.test_case "multiqueue: non-pow2 steering" `Quick test_queue_for_non_pow2;
    Alcotest.test_case "multiqueue: transmit follows queue_for" `Quick
      test_multiqueue_transmit_matches_steering;
    Helpers.qtest prop_burst_of_one_equals_single_slot;
    Helpers.qtest prop_burst_fifo_exactly_once;
    Helpers.qtest prop_untrusted_len_never_escapes;
    Helpers.qtest prop_untrusted_index_confined;
    Helpers.qtest prop_ring_model_based;
    Helpers.qtest prop_hot_swap_preserves_invariants;
    Helpers.qtest prop_range_shared_across_hot_swap;
  ]

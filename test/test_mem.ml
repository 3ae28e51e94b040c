(* Tests for the TEE memory model: protections, sharing/revocation,
   double-fetch transactions, and the buffer pool. *)

open Cio_util
open Cio_mem

let make ?(prot = Region.Shared) ?(size = 4 * 4096) () =
  Region.create ~prot ~model:Cost.default ~name:"test" size

let test_guest_rw_roundtrip () =
  let r = make () in
  Region.guest_write r ~off:100 (Bytes.of_string "hello");
  Helpers.check_bytes "roundtrip" (Bytes.of_string "hello") (Region.guest_read r ~off:100 ~len:5)

let test_host_rw_shared () =
  let r = make () in
  Region.host_write r ~off:0 (Bytes.of_string "host");
  Helpers.check_bytes "host sees shared" (Bytes.of_string "host") (Region.host_read r ~off:0 ~len:4)

let test_host_faults_on_private () =
  let r = make ~prot:Region.Private () in
  (match Region.host_read r ~off:0 ~len:4 with
  | _ -> Alcotest.fail "host read of private memory must fault"
  | exception Region.Fault (Region.Host_access_private _) -> ());
  match Region.host_write r ~off:0 (Bytes.of_string "x") with
  | _ -> Alcotest.fail "host write of private memory must fault"
  | exception Region.Fault (Region.Host_access_private _) -> ()

let test_guest_reads_private () =
  let r = make ~prot:Region.Private () in
  Region.guest_write r ~off:0 (Bytes.of_string "secret");
  Helpers.check_bytes "guest ok" (Bytes.of_string "secret") (Region.guest_read r ~off:0 ~len:6)

let test_out_of_bounds_faults () =
  let r = make ~size:4096 () in
  (match Region.guest_read r ~off:4090 ~len:10 with
  | _ -> Alcotest.fail "oob read must fault"
  | exception Region.Fault (Region.Out_of_bounds _) -> ());
  match Region.guest_read r ~off:(-1) ~len:1 with
  | _ -> Alcotest.fail "negative offset must fault"
  | exception Region.Fault (Region.Out_of_bounds _) -> ()

let test_unshare_revokes_host_access () =
  let r = make () in
  Region.host_write r ~off:0 (Bytes.of_string "ok");
  Region.unshare_page r 0;
  (match Region.host_read r ~off:0 ~len:2 with
  | _ -> Alcotest.fail "revoked page must fault for host"
  | exception Region.Fault (Region.Host_access_private _) -> ());
  (* Other pages remain shared. *)
  Region.host_write r ~off:4096 (Bytes.of_string "ok");
  (* Re-sharing restores access. *)
  Region.share_page r 0;
  Region.host_write r ~off:0 (Bytes.of_string "ok")

let test_partial_range_shared () =
  let r = make () in
  Region.unshare_page r 1;
  Alcotest.(check bool) "page 0 shared" true (Region.range_shared r 0 4096);
  Alcotest.(check bool) "range spanning private page" false (Region.range_shared r 4000 200);
  match Region.host_read r ~off:4000 ~len:200 with
  | _ -> Alcotest.fail "spanning read must fault"
  | exception Region.Fault (Region.Host_access_private _) -> ()

let test_share_costs_batched () =
  let model = Cost.default in
  let r = make () in
  let m = Region.meter r in
  (* Unshare all 4 pages in one batched call. *)
  Region.unshare_range r ~off:0 ~len:(4 * 4096);
  let batched = Cost.cycles_of m Cost.Unshare in
  Alcotest.(check int) "one full + three extras"
    (model.Cost.page_unshare + (3 * model.Cost.page_unshare_extra))
    batched;
  (* Per-page calls cost full price each. *)
  let r2 = make () in
  let m2 = Region.meter r2 in
  for p = 0 to 3 do
    Region.unshare_page r2 p
  done;
  Alcotest.(check int) "per-page pays full each" (4 * model.Cost.page_unshare)
    (Cost.cycles_of m2 Cost.Unshare)

let test_unshare_idempotent_cost () =
  let r = make () in
  let m = Region.meter r in
  Region.unshare_page r 0;
  let once = Cost.cycles_of m Cost.Unshare in
  Region.unshare_page r 0;
  Alcotest.(check int) "no double charge" once (Cost.cycles_of m Cost.Unshare)

let test_copy_in_charges () =
  let r = make () in
  let m = Region.meter r in
  ignore (Region.copy_in r ~off:0 ~len:1024);
  Alcotest.(check bool) "copy charged" (Cost.cycles_of m Cost.Copy > 0) true;
  Alcotest.(check int) "exact" (Cost.copy_cost (Region.model r) 1024) (Cost.cycles_of m Cost.Copy)

(* The double-fetch recorder: with the sanitizer armed, each guest fetch
   that overlaps an earlier fetch of the same epoch is one double fetch,
   and a mutated one if the bytes changed in between. *)
let test_double_fetch_detected () =
  let r = make () in
  Region.guest_write r ~off:0 (Bytes.of_string "AAAA");
  Region.sanitizer_enable r;
  ignore (Region.guest_read r ~off:0 ~len:4);
  ignore (Region.guest_read r ~off:0 ~len:4);
  let s = Region.sanitizer_stats r in
  Alcotest.(check int) "one double fetch" 1 s.Region.double_fetches;
  Alcotest.(check int) "not mutated" 0 s.Region.mutated_fetches

let test_double_fetch_mutation_flagged () =
  let r = make () in
  Region.guest_write r ~off:0 (Bytes.of_string "AAAA");
  Region.sanitizer_enable r;
  ignore (Region.guest_read r ~off:0 ~len:4);
  Region.host_write r ~off:0 (Bytes.of_string "BBBB");
  ignore (Region.guest_read r ~off:0 ~len:4);
  Alcotest.(check bool) "mutation flagged" true
    ((Region.sanitizer_stats r).Region.mutated_fetches > 0)

let test_single_fetch_no_hazard () =
  let r = make () in
  Region.sanitizer_enable r;
  ignore (Region.guest_read r ~off:0 ~len:4);
  ignore (Region.guest_read r ~off:100 ~len:4);
  Alcotest.(check int) "disjoint reads, no double fetch" 0
    (Region.sanitizer_stats r).Region.double_fetches

let test_overlapping_fetch_hazard () =
  let r = make () in
  Region.sanitizer_enable r;
  ignore (Region.guest_read r ~off:0 ~len:8);
  ignore (Region.guest_read r ~off:4 ~len:8);
  Alcotest.(check int) "overlap is a double fetch" 1
    (Region.sanitizer_stats r).Region.double_fetches

let test_guest_read_hook_fires () =
  let r = make () in
  Region.guest_write r ~off:0 (Bytes.of_string "\x01\x02\x03\x04");
  let fired = ref 0 in
  Region.set_guest_read_hook r
    (Some
       (fun ~off:_ ~len:_ ->
         incr fired;
         Region.set_guest_read_hook r None;
         Region.host_write r ~off:0 (Bytes.of_string "\xFF")));
  let first = Region.guest_read r ~off:0 ~len:1 in
  let second = Region.guest_read r ~off:0 ~len:1 in
  Alcotest.(check int) "fired once" 1 !fired;
  Alcotest.(check char) "first read honest" '\x01' (Bytes.get first 0);
  Alcotest.(check char) "second read sees race" '\xFF' (Bytes.get second 0)

let test_events_logged () =
  let r = make () in
  Region.clear_log r;
  ignore (Region.guest_read r ~off:0 ~len:4);
  Region.host_write r ~off:8 (Bytes.of_string "hi");
  let events = Region.events r in
  Alcotest.(check int) "two events" 2 (List.length events);
  match events with
  | [ Region.Read { actor = Region.Guest; _ }; Region.Write { actor = Region.Host; _ } ] -> ()
  | _ -> Alcotest.fail "unexpected event sequence"

let test_word_accessors () =
  let r = make () in
  Region.write_u16 r Region.Guest ~off:0 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Region.read_u16 r Region.Guest ~off:0);
  Region.write_u32 r Region.Guest ~off:4 0xDEADBEEF;
  Alcotest.(check int) "u32" 0xDEADBEEF (Region.read_u32 r Region.Guest ~off:4);
  Region.write_u64 r Region.Guest ~off:8 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Region.read_u64 r Region.Guest ~off:8);
  Region.write_u8 r Region.Guest ~off:16 0xAB;
  Alcotest.(check int) "u8" 0xAB (Region.read_u8 r Region.Guest ~off:16)

(* --- buffer pool (allocation-free datapath) --------------------------- *)

let test_bufpool_acquire_recycle_reuse () =
  let p = Bufpool.create () in
  let b = Bufpool.acquire p 100 in
  Alcotest.(check int) "exact length" 100 (Bytes.length b);
  Bufpool.recycle p b;
  let b2 = Bufpool.acquire p 100 in
  Alcotest.(check bool) "same buffer handed back" true (b == b2);
  let s = Bufpool.stats p in
  Alcotest.(check int) "one fresh" 1 s.Bufpool.fresh;
  Alcotest.(check int) "one reused" 1 s.Bufpool.reused;
  Alcotest.(check int) "one recycled" 1 s.Bufpool.recycled;
  Alcotest.(check int) "nothing dropped" 0 s.Bufpool.dropped

let test_bufpool_exact_length_buckets () =
  (* 64 and 65 share a pow2 class but are distinct buckets: recycling one
     length never serves an acquire of another. *)
  let p = Bufpool.create () in
  let b = Bufpool.acquire p 64 in
  Bufpool.recycle p b;
  let c = Bufpool.acquire p 65 in
  Alcotest.(check int) "right length" 65 (Bytes.length c);
  Alcotest.(check int) "65 was a fresh allocation" 2 (Bufpool.stats p).Bufpool.fresh;
  Alcotest.(check int) "64 still retained" 1 (Bufpool.retained p);
  Alcotest.(check bool) "64 reusable" true (Bufpool.acquire p 64 == b)

let test_bufpool_class_cap_drops () =
  let p = Bufpool.create ~cap:2 () in
  let bs = List.init 4 (fun _ -> Bufpool.acquire p 128) in
  List.iter (Bufpool.recycle p) bs;
  Alcotest.(check int) "retained capped at 2" 2 (Bufpool.retained p);
  Alcotest.(check int) "overflow dropped" 2 (Bufpool.stats p).Bufpool.dropped;
  (* Same class, different exact length, shares the class budget. *)
  let odd = Bufpool.acquire p 100 in
  Bufpool.recycle p odd;
  Alcotest.(check int) "class budget shared across lengths" 3 (Bufpool.stats p).Bufpool.dropped

let test_bufpool_rejects_nonpositive () =
  let p = Bufpool.create () in
  Alcotest.check_raises "zero length"
    (Invalid_argument "Bufpool.acquire: length must be positive") (fun () ->
      ignore (Bufpool.acquire p 0));
  Alcotest.check_raises "negative length"
    (Invalid_argument "Bufpool.acquire: length must be positive") (fun () ->
      ignore (Bufpool.acquire p (-3)))

let test_bufpool_reuse_allocates_nothing () =
  let p = Bufpool.create () in
  let lens = [| 9; 25; 1514; 4105 |] in
  let pairs () =
    for i = 0 to 999 do
      Bufpool.recycle p (Bufpool.acquire p lens.(i land 3))
    done
  in
  pairs ();
  let w0 = Gc.minor_words () in
  pairs ();
  let words = int_of_float (Gc.minor_words () -. w0) in
  Alcotest.(check int) "1000 steady-state pairs allocate 0 words" 0 words;
  let s = Bufpool.stats p in
  Alcotest.(check int) "one fresh buffer per length" 4 s.Bufpool.fresh;
  Alcotest.(check int) "every other acquire reused" 1996 s.Bufpool.reused

let test_bufpool_reuse_across_growth () =
  (* Every buffer recycled past the free list's initial size comes back,
     each exactly once. *)
  let p = Bufpool.create () in
  let bs = List.init 10 (fun _ -> Bufpool.acquire p 64) in
  List.iter (Bufpool.recycle p) bs;
  let again = List.init 10 (fun _ -> Bufpool.acquire p 64) in
  Alcotest.(check bool) "same buffers" true
    (List.for_all (fun b -> List.length (List.filter (( == ) b) again) = 1) bs);
  Alcotest.(check int) "no fresh buffer on reuse" 10 (Bufpool.stats p).Bufpool.fresh;
  Alcotest.(check int) "nothing retained" 0 (Bufpool.retained p)

(* Checking mode, which the whole suite runs in: a second recycle of a
   buffer that is still free would hand it to two owners. *)
let test_bufpool_checking_double_recycle () =
  Bufpool.set_checking true;
  let p = Bufpool.create () in
  let b = Bufpool.acquire p 32 in
  Bytes.fill b 0 32 'k';
  Bufpool.recycle p b;
  Alcotest.(check bool) "recycled buffer poisoned" true (Bytes.for_all (fun c -> c <> 'k') b);
  Alcotest.check_raises "second recycle fails"
    (Invalid_argument "Bufpool.recycle: buffer is already free in this pool") (fun () ->
      Bufpool.recycle p b);
  Alcotest.(check int) "counted once" 1 (Bufpool.stats p).Bufpool.recycled;
  (* Handed out again, it is owned again and may come back once more. *)
  let again = Bufpool.acquire p 32 in
  Alcotest.(check bool) "same buffer" true (again == b);
  Bufpool.recycle p again;
  (* Another pool knows nothing of it. *)
  Bufpool.recycle (Bufpool.create ()) (Bufpool.acquire p 32)

let test_bufpool_checking_off () =
  Fun.protect ~finally:(fun () -> Bufpool.set_checking true) @@ fun () ->
  Bufpool.set_checking false;
  let p = Bufpool.create () in
  let b = Bufpool.acquire p 32 in
  Bytes.fill b 0 32 'k';
  Bufpool.recycle p b;
  Alcotest.(check bool) "contents untouched" true (Bytes.for_all (fun c -> c = 'k') b);
  Bufpool.recycle p b;
  Alcotest.(check int) "a second recycle is not detected" 2 (Bufpool.stats p).Bufpool.recycled

let prop_bufpool_acquire_is_exact_and_balanced =
  QCheck.Test.make ~name:"bufpool acquires are exact-length; stats balance" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 1 4096))
    (fun lens ->
      let p = Bufpool.create ~cap:8 () in
      let held = List.map (fun len -> Bufpool.acquire p len) lens in
      List.iter (Bufpool.recycle p) held;
      let again = List.map (fun len -> (len, Bufpool.acquire p len)) lens in
      let s = Bufpool.stats p in
      List.for_all (fun (len, b) -> Bytes.length b = len) again
      && s.Bufpool.fresh + s.Bufpool.reused = 2 * List.length lens
      && s.Bufpool.recycled + s.Bufpool.dropped = List.length lens
      && Bufpool.retained p >= 0)

(* --- runtime double-fetch sanitizer ----------------------------------- *)

let san_metric name =
  Cio_telemetry.Metrics.counter_value
    (Cio_telemetry.Metrics.counter Cio_telemetry.Metrics.default name)

let test_sanitizer_off_counts_nothing () =
  let r = make () in
  Alcotest.(check bool) "off by default" false (Region.sanitizer_on r);
  ignore (Region.guest_read r ~off:0 ~len:8);
  ignore (Region.guest_read r ~off:0 ~len:8);
  let s = Region.sanitizer_stats r in
  Alcotest.(check int) "no doubles recorded" 0 s.Region.double_fetches;
  Alcotest.(check int) "no mutations recorded" 0 s.Region.mutated_fetches

let test_sanitizer_counts_double_fetch () =
  let r = make () in
  let m0 = san_metric "mem.sanitizer.double_fetch" in
  Region.sanitizer_enable r;
  ignore (Region.guest_read r ~off:0 ~len:8);
  ignore (Region.guest_read r ~off:4 ~len:8);
  let s = Region.sanitizer_stats r in
  Alcotest.(check int) "overlap counted" 1 s.Region.double_fetches;
  Alcotest.(check int) "bytes unchanged: not mutated" 0 s.Region.mutated_fetches;
  Alcotest.(check int) "metric bumped" (m0 + 1) (san_metric "mem.sanitizer.double_fetch")

let test_sanitizer_sees_host_race () =
  (* The attack harness's race hook rewrites the bytes after the first
     fetch; the second fetch must be counted as a *mutated* double. *)
  let r = make () in
  Region.guest_write r ~off:0 (Bytes.of_string "AAAA");
  Region.sanitizer_enable r;
  Region.set_guest_read_hook r
    (Some
       (fun ~off:_ ~len:_ ->
         Region.set_guest_read_hook r None;
         Region.host_write r ~off:0 (Bytes.of_string "BBBB")));
  ignore (Region.guest_read r ~off:0 ~len:4);
  ignore (Region.guest_read r ~off:0 ~len:4);
  let s = Region.sanitizer_stats r in
  Alcotest.(check int) "double fetch" 1 s.Region.double_fetches;
  Alcotest.(check int) "raced mutation seen" 1 s.Region.mutated_fetches

let test_sanitizer_epoch_resets_window () =
  let r = make () in
  Region.sanitizer_enable r;
  ignore (Region.guest_read r ~off:0 ~len:8);
  Region.sanitizer_epoch r;
  ignore (Region.guest_read r ~off:0 ~len:8);
  let s = Region.sanitizer_stats r in
  Alcotest.(check int) "cross-epoch re-read is legitimate" 0 s.Region.double_fetches;
  Alcotest.(check int) "epoch counted" 1 s.Region.epochs;
  Region.sanitizer_disable r;
  Alcotest.(check bool) "disabled" false (Region.sanitizer_on r)

let test_sanitizer_ignores_private_and_host () =
  let r = make () in
  Region.unshare_page r 0;
  Region.sanitizer_enable r;
  (* Private-page guest reads and host reads of shared memory are not
     guest fetches of host-writable state. *)
  ignore (Region.guest_read r ~off:0 ~len:8);
  ignore (Region.guest_read r ~off:0 ~len:8);
  ignore (Region.host_read r ~off:4096 ~len:8);
  ignore (Region.host_read r ~off:4096 ~len:8);
  Alcotest.(check int) "nothing counted" 0 (Region.sanitizer_stats r).Region.double_fetches

(* Property: the sanitizer's semantics within one epoch are exactly
   "overlap = one double fetch, changed bytes in the overlap = mutated";
   the next epoch starts clean. *)
let prop_sanitizer_overlap_race_semantics =
  QCheck.Test.make ~name:"sanitizer: overlap + race semantics" ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair
           (quad (int_range 0 1000) (int_range 1 64) (int_range 0 1000) (int_range 1 64))
           bool))
    (fun ((off1, len1, off2, len2), mutate) ->
      let r = make () in
      Region.sanitizer_enable r;
      ignore (Region.guest_read r ~off:off1 ~len:len1);
      if mutate then Region.host_write r ~off:off2 (Bytes.make len2 '\xFF');
      ignore (Region.guest_read r ~off:off2 ~len:len2);
      Region.sanitizer_epoch r;
      ignore (Region.guest_read r ~off:off2 ~len:len2);
      let overlap = off1 < off2 + len2 && off2 < off1 + len1 in
      let s = Region.sanitizer_stats r in
      (* 1. a double fetch iff the two reads overlap; *)
      s.Region.double_fetches = (if overlap then 1 else 0)
      (* 2. mutated iff the host raced an overlapping window. *)
      && s.Region.mutated_fetches = (if overlap && mutate then 1 else 0))

(* --- range_shared: O(1) when nothing is private, a scan otherwise ----- *)

let prot_op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun p -> `Share_page p) nat;
        map (fun p -> `Unshare_page p) nat;
        map (fun r -> `Share_range r) (pair nat nat);
        map (fun r -> `Unshare_range r) (pair nat nat);
      ])

let prot_op_print = function
  | `Share_page p -> Printf.sprintf "share_page %d" p
  | `Unshare_page p -> Printf.sprintf "unshare_page %d" p
  | `Share_range (a, b) -> Printf.sprintf "share_range (%d,%d)" a b
  | `Unshare_range (a, b) -> Printf.sprintf "unshare_range (%d,%d)" a b

(* Raw draws are folded onto the region's pages and in-bounds ranges. *)
let apply_prot_op r op =
  let page p = p mod Region.page_count r in
  match op with
  | `Share_page p -> Region.share_page r (page p)
  | `Unshare_page p -> Region.unshare_page r (page p)
  | `Share_range q ->
      let off, len = Helpers.clamp_range r q in
      Region.share_range r ~off ~len
  | `Unshare_range q ->
      let off, len = Helpers.clamp_range r q in
      Region.unshare_range r ~off ~len

let prop_range_shared_equals_page_scan =
  QCheck.Test.make ~name:"range_shared == page scan after random share/unshare" ~count:300
    (QCheck.make
       ~print:(fun (prot, size, ops, _) ->
         Printf.sprintf "%s size=%d ops=[%s]"
           (if prot then "Shared" else "Private")
           size
           (String.concat "; " (List.map prot_op_print ops)))
       QCheck.Gen.(
         quad bool (int_range 1 3000) (list_size (int_range 0 30) prot_op_gen) Helpers.range_query_gen))
    (fun (shared, size, ops, queries) ->
      let prot = if shared then Region.Shared else Region.Private in
      let r = Region.create ~page_size:64 ~prot ~model:Cost.default ~name:"prop" size in
      Helpers.range_shared_agrees r queries
      && List.for_all
           (fun op ->
             apply_prot_op r op;
             Helpers.range_shared_agrees r queries)
           ops)

let suite =
  [
    Alcotest.test_case "region: guest roundtrip" `Quick test_guest_rw_roundtrip;
    Alcotest.test_case "region: host access to shared" `Quick test_host_rw_shared;
    Alcotest.test_case "region: host faults on private" `Quick test_host_faults_on_private;
    Alcotest.test_case "region: guest reads private" `Quick test_guest_reads_private;
    Alcotest.test_case "region: bounds faults" `Quick test_out_of_bounds_faults;
    Alcotest.test_case "region: revocation" `Quick test_unshare_revokes_host_access;
    Alcotest.test_case "region: partial range protection" `Quick test_partial_range_shared;
    Alcotest.test_case "region: batched revocation cost" `Quick test_share_costs_batched;
    Alcotest.test_case "region: idempotent unshare cost" `Quick test_unshare_idempotent_cost;
    Alcotest.test_case "region: copy-in charged" `Quick test_copy_in_charges;
    Alcotest.test_case "region: double fetch detected" `Quick test_double_fetch_detected;
    Alcotest.test_case "region: raced double fetch flagged" `Quick test_double_fetch_mutation_flagged;
    Alcotest.test_case "region: disjoint reads safe" `Quick test_single_fetch_no_hazard;
    Alcotest.test_case "region: overlapping reads hazardous" `Quick test_overlapping_fetch_hazard;
    Alcotest.test_case "region: guest-read race hook" `Quick test_guest_read_hook_fires;
    Alcotest.test_case "region: access log" `Quick test_events_logged;
    Alcotest.test_case "region: word accessors" `Quick test_word_accessors;
    Alcotest.test_case "bufpool: acquire/recycle/reuse" `Quick test_bufpool_acquire_recycle_reuse;
    Alcotest.test_case "bufpool: exact-length buckets" `Quick test_bufpool_exact_length_buckets;
    Alcotest.test_case "bufpool: class cap drops overflow" `Quick test_bufpool_class_cap_drops;
    Alcotest.test_case "bufpool: non-positive length rejected" `Quick
      test_bufpool_rejects_nonpositive;
    Alcotest.test_case "bufpool: reuse allocates nothing" `Quick
      test_bufpool_reuse_allocates_nothing;
    Alcotest.test_case "bufpool: reuse across growth" `Quick
      test_bufpool_reuse_across_growth;
    Alcotest.test_case "bufpool: checking mode catches a double recycle" `Quick
      test_bufpool_checking_double_recycle;
    Alcotest.test_case "bufpool: checking mode off" `Quick test_bufpool_checking_off;
    Alcotest.test_case "sanitizer: off by default, counts nothing" `Quick
      test_sanitizer_off_counts_nothing;
    Alcotest.test_case "sanitizer: overlapping fetch counted" `Quick
      test_sanitizer_counts_double_fetch;
    Alcotest.test_case "sanitizer: host race marks mutation" `Quick test_sanitizer_sees_host_race;
    Alcotest.test_case "sanitizer: epoch resets the window" `Quick
      test_sanitizer_epoch_resets_window;
    Alcotest.test_case "sanitizer: private/host reads ignored" `Quick
      test_sanitizer_ignores_private_and_host;
    Helpers.qtest prop_sanitizer_overlap_race_semantics;
    Helpers.qtest prop_bufpool_acquire_is_exact_and_balanced;
    Helpers.qtest prop_range_shared_equals_page_scan;
  ]

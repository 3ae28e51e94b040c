(* Packed virtqueue tests: layout semantics, wrap-counter discipline,
   benign datapaths across multiple laps, and the format-specific attack
   contrasts (E15 at unit level). *)

open Cio_virtio

let make ?(hardened = false) () =
  let tr = Packed.create_transport ~name:"test-packed" in
  let sent = ref [] in
  let dev = Packed.create_device ~transport:tr ~transmit:(fun f -> sent := f :: !sent) in
  let drv = Packed.create_driver ~hardened tr in
  (tr, dev, drv, sent)

let test_flag_semantics () =
  (* VirtIO 1.1 §2.8.1: available iff AVAIL=wrap and USED!=wrap. *)
  let f_true = Packed.avail_flags ~wrap:true ~write:false in
  Alcotest.(check bool) "avail wrap=true" true (Packed.is_avail f_true ~wrap:true);
  Alcotest.(check bool) "not avail wrap=false" false (Packed.is_avail f_true ~wrap:false);
  let u_true = Packed.used_flags ~wrap:true in
  Alcotest.(check bool) "used wrap=true" true (Packed.is_used u_true ~wrap:true);
  Alcotest.(check bool) "used wrong lap" false (Packed.is_used u_true ~wrap:false);
  Alcotest.(check bool) "used is not avail" false (Packed.is_avail u_true ~wrap:true)

let test_element_roundtrip () =
  let region =
    Cio_mem.Region.create ~prot:Cio_mem.Region.Shared ~model:Cio_util.Cost.default ~name:"pq" 4096
  in
  let q = Packed.make_queue ~region ~base:0 ~size:8 in
  let e = { Packed.addr = 0x200; len = 512; id = 5; flags = Packed.flag_avail lor Packed.flag_write } in
  Packed.write_elem q Cio_mem.Region.Guest 3 e;
  let got = Packed.read_elem q Cio_mem.Region.Host 3 in
  Alcotest.(check int) "addr" e.Packed.addr got.Packed.addr;
  Alcotest.(check int) "len" e.Packed.len got.Packed.len;
  Alcotest.(check int) "id" e.Packed.id got.Packed.id;
  Alcotest.(check int) "flags" e.Packed.flags got.Packed.flags

let test_benign_tx_rx () =
  let _, dev, drv, sent = make () in
  Alcotest.(check bool) "tx" true (Packed.driver_transmit drv (Bytes.of_string "out"));
  Packed.device_poll dev;
  Alcotest.(check int) "forwarded" 1 (List.length !sent);
  Helpers.check_bytes "tx content" (Bytes.of_string "out") (List.hd !sent);
  Packed.device_deliver_rx dev (Bytes.of_string "in");
  Packed.device_poll dev;
  match Packed.driver_poll drv with
  | Some f -> Helpers.check_bytes "rx" (Bytes.of_string "in") f
  | None -> Alcotest.fail "no rx"

let test_multiple_wrap_laps () =
  (* 5x the ring depth in both directions: wrap counters must stay in
     sync on both sides, for both driver variants. *)
  List.iter
    (fun hardened ->
      let _, dev, drv, sent = make ~hardened () in
      for i = 1 to 320 do
        Alcotest.(check bool) "tx accepted" true
          (Packed.driver_transmit drv (Bytes.of_string (Printf.sprintf "t%04d" i)));
        Packed.device_poll dev;
        Packed.device_deliver_rx dev (Bytes.of_string (Printf.sprintf "r%04d" i));
        Packed.device_poll dev;
        match Packed.driver_poll drv with
        | Some f ->
            Helpers.check_bytes "in order across laps" (Bytes.of_string (Printf.sprintf "r%04d" i)) f
        | None -> Alcotest.fail "rx lost across wrap"
      done;
      Alcotest.(check int) "all forwarded" 320 (List.length !sent))
    [ false; true ]

let test_lie_len_overreads_unhardened () =
  let tr, dev, drv, _ = make () in
  Cio_mem.Region.guest_write (Packed.transport_region tr) ~off:(Packed.rx_buf_offset tr 1)
    (Bytes.of_string "NEIGHBOUR-SECRET");
  Packed.device_inject dev (Packed.P_lie_len 4000);
  Packed.device_deliver_rx dev (Bytes.of_string "x");
  Packed.device_poll dev;
  match Packed.driver_poll drv with
  | Some f ->
      Alcotest.(check int) "over-read" 4000 (Bytes.length f);
      let s = Bytes.to_string f in
      let contains needle =
        let n = String.length s and c = String.length needle in
        let rec go i = i + c <= n && (String.equal (String.sub s i c) needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "leaked neighbour bytes" true (contains "NEIGHBOUR-SECRET")
  | None -> Alcotest.fail "no frame"

let test_lie_len_clamped_hardened () =
  let tr, dev, drv, _ = make ~hardened:true () in
  Packed.device_inject dev (Packed.P_lie_len 4000);
  Packed.device_deliver_rx dev (Bytes.of_string "x");
  Packed.device_poll dev;
  (match Packed.driver_poll drv with
  | Some f ->
      Alcotest.(check bool) "clamped" true (Bytes.length f <= Packed.transport_buf_size tr)
  | None -> Alcotest.fail "no frame");
  let _, _, clamped = Packed.driver_rejects drv in
  Alcotest.(check int) "clamp counted" 1 clamped

let test_bogus_id_crashes_unhardened () =
  let _, dev, drv, _ = make () in
  Packed.device_inject dev (Packed.P_bogus_id 5000);
  Packed.device_deliver_rx dev (Bytes.of_string "x");
  Packed.device_poll dev;
  match Packed.driver_poll drv with
  | exception Cio_mem.Region.Fault _ -> ()
  | _ -> Alcotest.fail "wild id must fault the unhardened driver"

let test_bogus_id_rejected_hardened () =
  let _, dev, drv, _ = make ~hardened:true () in
  Packed.device_inject dev (Packed.P_bogus_id 5000);
  Packed.device_deliver_rx dev (Bytes.of_string "x");
  Packed.device_poll dev;
  ignore (Packed.driver_poll drv);
  let _, id_rej, _ = Packed.driver_rejects drv in
  Alcotest.(check int) "rejected" 1 id_rej

let test_premature_used_yields_stale_bytes () =
  (* Both variants accept the stale bytes at L2 — payload timing cannot be
     validated there; the dual design's L5 layer is what catches it. *)
  let _, dev, drv, _ = make () in
  Packed.device_inject dev Packed.P_premature_used;
  Packed.device_deliver_rx dev (Bytes.of_string "real-frame");
  Packed.device_poll dev;
  match Packed.driver_poll drv with
  | Some f -> Alcotest.(check bool) "stale, not the real frame" false
                (Bytes.equal f (Bytes.of_string "real-frame"))
  | None -> Alcotest.fail "no frame"

let test_wrap_replay_duplicates () =
  let _, dev, drv, _ = make () in
  Packed.device_inject dev Packed.P_wrap_replay;
  Packed.device_deliver_rx dev (Bytes.of_string "once");
  Packed.device_poll dev;
  let got = ref 0 in
  for _ = 1 to 4 do
    match Packed.driver_poll drv with Some _ -> incr got | None -> ()
  done;
  Alcotest.(check bool) "phantom completion delivered" true (!got >= 2)

let test_check_inventories_differ () =
  let unique l = List.filter snd l |> List.map fst in
  let p = unique Packed.hardened_check_inventory in
  let s = unique Packed.split_hardened_check_inventory in
  Alcotest.(check bool) "packed has unique checks" true (p <> []);
  Alcotest.(check bool) "split has unique checks" true (s <> []);
  List.iter
    (fun c -> Alcotest.(check bool) (c ^ " not shared") false (List.mem c s))
    p

let suite =
  [
    Alcotest.test_case "flag semantics" `Quick test_flag_semantics;
    Alcotest.test_case "element roundtrip" `Quick test_element_roundtrip;
    Alcotest.test_case "benign tx/rx" `Quick test_benign_tx_rx;
    Alcotest.test_case "five wrap laps, both variants" `Quick test_multiple_wrap_laps;
    Alcotest.test_case "attack: lie-len over-reads (unhardened)" `Quick
      test_lie_len_overreads_unhardened;
    Alcotest.test_case "attack: lie-len clamped (hardened)" `Quick test_lie_len_clamped_hardened;
    Alcotest.test_case "attack: bogus id crashes (unhardened)" `Quick test_bogus_id_crashes_unhardened;
    Alcotest.test_case "attack: bogus id rejected (hardened)" `Quick test_bogus_id_rejected_hardened;
    Alcotest.test_case "attack: premature used = stale bytes" `Quick
      test_premature_used_yields_stale_bytes;
    Alcotest.test_case "attack: wrap replay duplicates" `Quick test_wrap_replay_duplicates;
    Alcotest.test_case "check inventories differ by format" `Quick test_check_inventories_differ;
  ]

(* Unit + property tests for cio_util. *)

open Cio_util

let test_rng_determinism () =
  let a = Rng.create 123L and b = Rng.create 123L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 1L in
  let child = Rng.split a in
  Alcotest.(check bool) "split differs from parent"
    (Rng.next_int64 child <> Rng.next_int64 a)
    true

let test_rng_int_bounds () =
  let r = Rng.create 9L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" (v >= 0 && v < 17) true
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.create 1L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_range () =
  let r = Rng.create 5L in
  for _ = 1 to 200 do
    let v = Rng.range r ~lo:5 ~hi:8 in
    Alcotest.(check bool) "in [5,8]" (v >= 5 && v <= 8) true
  done

let test_rng_float_unit_interval () =
  let r = Rng.create 2L in
  for _ = 1 to 1000 do
    let v = Rng.float r in
    Alcotest.(check bool) "in [0,1)" (v >= 0.0 && v < 1.0) true
  done

let test_rng_bytes_length () =
  let r = Rng.create 3L in
  Alcotest.(check int) "length" 37 (Bytes.length (Rng.bytes r 37))

let test_rng_shuffle_permutation () =
  let r = Rng.create 4L in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_bitops_power_of_two () =
  List.iter
    (fun (n, expect) -> Alcotest.(check bool) (string_of_int n) expect (Bitops.is_power_of_two n))
    [ (1, true); (2, true); (3, false); (64, true); (0, false); (-4, false); (4096, true) ]

let test_bitops_next_power_of_two () =
  List.iter
    (fun (n, expect) -> Alcotest.(check int) (string_of_int n) expect (Bitops.next_power_of_two n))
    [ (0, 1); (1, 1); (2, 2); (3, 4); (1000, 1024); (1024, 1024) ]

let test_bitops_mask () =
  Alcotest.(check int) "mask 64" 63 (Bitops.mask_of_size 64);
  Alcotest.check_raises "mask 63 rejected"
    (Invalid_argument "Bitops.mask_of_size: size must be a power of two") (fun () ->
      ignore (Bitops.mask_of_size 63))

let test_bitops_align () =
  Alcotest.(check int) "up" 4096 (Bitops.align_up 1 ~align:4096);
  Alcotest.(check int) "up exact" 4096 (Bitops.align_up 4096 ~align:4096);
  Alcotest.(check int) "down" 0 (Bitops.align_down 4095 ~align:4096);
  Alcotest.(check bool) "aligned" true (Bitops.is_aligned 8192 ~align:4096);
  Alcotest.(check bool) "unaligned" false (Bitops.is_aligned 8193 ~align:4096)

let test_bitops_log2 () =
  Alcotest.(check int) "log2 1" 0 (Bitops.log2 1);
  Alcotest.(check int) "log2 4096" 12 (Bitops.log2 4096)

let test_bitops_popcount () =
  Alcotest.(check int) "popcount 0" 0 (Bitops.popcount 0);
  Alcotest.(check int) "popcount 0xFF" 8 (Bitops.popcount 0xFF);
  Alcotest.(check int) "popcount 0x101" 2 (Bitops.popcount 0x101)

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 2.0 (Stats.percentile xs 25.0)

let test_stats_summary () =
  let s = Stats.summarize [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check int) "count" 8 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.Stats.mean;
  Alcotest.(check (float 0.2)) "stddev" 2.138 s.Stats.stddev;
  Alcotest.(check (float 1e-9)) "min" 2.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 9.0 s.Stats.max

let test_stats_online_matches_batch () =
  let xs = Array.init 500 (fun i -> float_of_int ((i * 37 mod 101) - 50)) in
  let o = Stats.online () in
  Array.iter (Stats.add o) xs;
  Alcotest.(check int) "count" 500 (Stats.online_count o);
  Alcotest.(check (float 1e-6)) "mean" (Stats.mean xs) (Stats.online_mean o);
  Alcotest.(check (float 1e-6)) "stddev" (Stats.stddev xs) (Stats.online_stddev o)

let test_crc32_vectors () =
  (* Canonical check value for "123456789". *)
  Alcotest.(check int32) "check" 0xCBF43926l (Crc32.digest_string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.digest_string "")

let test_crc32_incremental () =
  let whole = Crc32.digest_string "hello world" in
  let part = Crc32.update 0l (Bytes.of_string "hello world") ~pos:0 ~len:5 in
  let part = Crc32.update part (Bytes.of_string "hello world") ~pos:5 ~len:6 in
  Alcotest.(check int32) "incremental equals one-shot" whole part

let test_hex_roundtrip () =
  Alcotest.(check string) "roundtrip" "deadbeef" (Hex.of_bytes (Hex.to_bytes "deadbeef"));
  Alcotest.(check string) "whitespace tolerated" "0102"
    (Hex.of_bytes (Hex.to_bytes "01 02"))

let test_hex_invalid () =
  Alcotest.check_raises "odd" (Invalid_argument "Hex.to_bytes: odd length") (fun () ->
      ignore (Hex.to_bytes "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hex.to_bytes: invalid hex digit") (fun () ->
      ignore (Hex.to_bytes "zz"))

let test_cost_meter_accumulates () =
  let m = Cost.meter () in
  Cost.charge m Cost.Copy 100;
  Cost.charge m Cost.Copy 50;
  Cost.charge m Cost.Gate 10;
  Alcotest.(check int) "copy cycles" 150 (Cost.cycles_of m Cost.Copy);
  Alcotest.(check int) "copy count" 2 (Cost.count_of m Cost.Copy);
  Alcotest.(check int) "total" 160 (Cost.total m)

let test_cost_snapshot_diff () =
  let m = Cost.meter () in
  Cost.charge m Cost.Ring 10;
  let before = Cost.snapshot m in
  Cost.charge m Cost.Ring 25;
  let d = Cost.diff ~before ~after:(Cost.snapshot m) in
  Alcotest.(check int) "diff" 25 (Cost.cycles_of d Cost.Ring)

let test_cost_reset () =
  let m = Cost.meter () in
  Cost.charge m Cost.Crypto 99;
  Cost.reset m;
  Alcotest.(check int) "zeroed" 0 (Cost.total m)

let test_cost_copy_formula () =
  let m = Cost.default in
  Alcotest.(check bool) "copy grows with size"
    (Cost.copy_cost m 4096 > Cost.copy_cost m 64)
    true;
  Alcotest.(check int) "copy base" m.Cost.copy_base (Cost.copy_cost m 0)

let prop_mask_confines =
  QCheck.Test.make ~name:"mask confines any int to [0,size)" ~count:500
    QCheck.(pair small_nat (int_bound 20))
    (fun (v, bits) ->
      let size = 1 lsl bits in
      let masked = v land Bitops.mask_of_size size in
      masked >= 0 && masked < size)

let prop_align_up_idempotent =
  QCheck.Test.make ~name:"align_up is idempotent" ~count:500
    QCheck.(pair small_nat (int_range 0 12))
    (fun (n, bits) ->
      let align = 1 lsl bits in
      let once = Bitops.align_up n ~align in
      Bitops.align_up once ~align = once && once >= n)

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:300 QCheck.(string_of_size Gen.small_nat)
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal (Hex.to_bytes (Hex.of_bytes b)) b)

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentiles lie within min/max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let arr = Array.of_list xs in
      let p = Stats.percentile arr 90.0 in
      let lo = Array.fold_left min arr.(0) arr and hi = Array.fold_left max arr.(0) arr in
      p >= lo -. 1e-9 && p <= hi +. 1e-9)

(* Byteq against a string model: appends, takes, drops and in-place
   consumes in any order keep the same FIFO contents. *)
type byteq_op = Add of string | Take of int | Drop of int | Consume of int

let byteq_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun s -> Add s) (string_size (int_range 0 200)));
        (2, map (fun n -> Take n) (int_range 0 150));
        (1, map (fun n -> Drop n) (int_range 0 150));
        (1, map (fun n -> Consume n) (int_range 0 150));
      ])

let print_byteq_op = function
  | Add s -> Printf.sprintf "Add %d" (String.length s)
  | Take n -> Printf.sprintf "Take %d" n
  | Drop n -> Printf.sprintf "Drop %d" n
  | Consume n -> Printf.sprintf "Consume %d" n

let prop_byteq_matches_model =
  QCheck.Test.make ~name:"byteq behaves as a FIFO string" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list print_byteq_op)
       QCheck.Gen.(list_size (int_range 0 60) byteq_op_gen))
    (fun ops ->
      let q = Byteq.create 1 in
      let model = ref "" in
      let cut n =
        let n = min n (String.length !model) in
        let front = String.sub !model 0 n in
        model := String.sub !model n (String.length !model - n);
        front
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Add s ->
                Byteq.add_bytes q (Bytes.of_string s);
                model := !model ^ s;
                true
            | Take n ->
                let n = min n (Byteq.length q) in
                Bytes.to_string (Byteq.take q n) = cut n
            | Drop n ->
                let n = min n (Byteq.length q) in
                Byteq.drop q n;
                ignore (cut n);
                true
            | Consume n ->
                let seen = ref "" in
                let got =
                  Byteq.consume q (fun b off len ->
                      let k = min n len in
                      seen := Bytes.sub_string b off k;
                      k)
                in
                got = String.length !seen && !seen = cut got
          in
          ok
          && Byteq.length q = String.length !model
          && String.init (Byteq.length q) (Byteq.get q) = !model)
        ops)

let suite =
  [
    Alcotest.test_case "rng: determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng: split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng: rejects bad bound" `Quick test_rng_int_rejects_nonpositive;
    Alcotest.test_case "rng: range inclusive" `Quick test_rng_range;
    Alcotest.test_case "rng: float in unit interval" `Quick test_rng_float_unit_interval;
    Alcotest.test_case "rng: bytes length" `Quick test_rng_bytes_length;
    Alcotest.test_case "rng: shuffle is a permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "bitops: power-of-two predicate" `Quick test_bitops_power_of_two;
    Alcotest.test_case "bitops: next power of two" `Quick test_bitops_next_power_of_two;
    Alcotest.test_case "bitops: masks" `Quick test_bitops_mask;
    Alcotest.test_case "bitops: alignment" `Quick test_bitops_align;
    Alcotest.test_case "bitops: log2" `Quick test_bitops_log2;
    Alcotest.test_case "bitops: popcount" `Quick test_bitops_popcount;
    Alcotest.test_case "stats: percentiles" `Quick test_stats_percentile;
    Alcotest.test_case "stats: summary" `Quick test_stats_summary;
    Alcotest.test_case "stats: online matches batch" `Quick test_stats_online_matches_batch;
    Alcotest.test_case "crc32: vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "crc32: incremental" `Quick test_crc32_incremental;
    Alcotest.test_case "hex: roundtrip" `Quick test_hex_roundtrip;
    Helpers.qtest prop_byteq_matches_model;
    Alcotest.test_case "hex: invalid input" `Quick test_hex_invalid;
    Alcotest.test_case "cost: meter accumulates" `Quick test_cost_meter_accumulates;
    Alcotest.test_case "cost: snapshot diff" `Quick test_cost_snapshot_diff;
    Alcotest.test_case "cost: reset" `Quick test_cost_reset;
    Alcotest.test_case "cost: copy formula" `Quick test_cost_copy_formula;
    Helpers.qtest prop_mask_confines;
    Helpers.qtest prop_align_up_idempotent;
    Helpers.qtest prop_hex_roundtrip;
    Helpers.qtest prop_percentile_bounded;
  ]

(* Tests for the benchmark's own helpers: percentiles, self time from
   nested spans, and the result line's JSON. *)

open Perfbench

let test_percentile_tail () =
  let sorted = Array.init 1000 (fun i -> i + 1) in
  Alcotest.(check int) "p99 of 1..1000" 990 (Stats.percentile sorted 0.99);
  Alcotest.(check int) "p50 of 1..1000" 500 (Stats.percentile sorted 0.50);
  Alcotest.(check int) "ten samples beyond p99 at n = 1000" 10 (Stats.beyond ~n:1000 0.99);
  Alcotest.(check bool) "fewer than ten beyond p99 at n = 999" true (Stats.beyond ~n:999 0.99 < 10);
  let rank_beyond = Array.length sorted - Stats.percentile sorted 0.99 in
  Alcotest.(check int) "beyond counts the samples above the pick" rank_beyond
    (Stats.beyond ~n:1000 0.99);
  Alcotest.(check int) "p100 is the maximum" 1000 (Stats.percentile sorted 1.0);
  Alcotest.(check int) "single sample" 7 (Stats.percentile [| 7 |] 0.99)

let test_median () =
  Alcotest.(check (float 0.)) "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ])

(* Four slices of two kernel runs, 10 ops and 1 ms of work each. The
   kernel takes 60 us in the first two slices and 120 us in the last
   two, a core slowed to half speed: the work there took 2 ms instead of
   1 ms, and calibration maps it back to 1 ms. *)
let test_calibrated_rate () =
  let marks = 9 in
  let ops = Array.init marks (fun i -> 5 * i) in
  let work_ns = Array.init marks (fun i -> if i <= 4 then 500_000 * i else 2_000_000 + (1_000_000 * (i - 4))) in
  let kernel_ns = Array.init marks (fun i -> if i <= 4 then 60_000 * i else 240_000 + (120_000 * (i - 4))) in
  let rate = Stats.calibrated_rate ~ops ~work_ns ~kernel_ns ~group:2 ~reference_ns:60_000. in
  Alcotest.(check (float 1e-6)) "slowed slices count at full speed" 10_000. rate;
  let raw = Stats.calibrated_rate ~ops ~work_ns ~kernel_ns:(Array.init marks (fun i -> 60_000 * i)) ~group:2 ~reference_ns:60_000. in
  Alcotest.(check (float 1e-6)) "a steady kernel leaves the plain rate" (40. /. 6e-3) raw;
  let partial = Stats.calibrated_rate ~ops ~work_ns ~kernel_ns ~group:3 ~reference_ns:60_000. in
  Alcotest.(check (float 1e-6)) "a partial last slice is left out" 10_000. partial

(* RFC 8439 2.3.2: the kernel's block must stay the ChaCha20 block. *)
let test_kernel_block () =
  let key = Bytes.init 32 Char.chr in
  let nonce = Bytes.of_string "\x00\x00\x00\x09\x00\x00\x00\x4a\x00\x00\x00\x00" in
  let out = Kernel.block ~key ~nonce ~counter:1l in
  let hex = String.concat "" (List.init 16 (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get out i)))) in
  Alcotest.(check string) "first 16 bytes" "10f1e7e4d13b5915500fdd1fa32071c4" hex

(* A fake clock and cycle counter the test advances by hand. *)
let nested_spans () =
  let now = ref 0 and cycles = ref 0 and words = ref 0 in
  let tr = Span.create ~clock:(fun () -> !now) ~words:(fun () -> !words) ~cycles:(fun () -> !cycles) () in
  let outer = Span.layer tr "outer" and inner = Span.layer tr "inner" in
  let work ns c w =
    now := !now + ns;
    cycles := !cycles + c;
    words := !words + w
  in
  (* outer: 20 ns, then inner 30 ns (twice: 10 + 20), then 50 ns. *)
  Span.span tr outer (fun () ->
      work 20 2 1;
      Span.span tr inner (fun () -> work 10 100 10);
      Span.span tr inner (fun () -> work 20 200 20);
      work 50 5 2);
  work 7 0 0;
  (tr, outer, inner)

let test_self_time () =
  let tr, outer, inner = nested_spans () in
  Alcotest.(check int) "outer self ns" 70 outer.Span.self_ns;
  Alcotest.(check int) "inner self ns" 30 inner.Span.self_ns;
  Alcotest.(check int) "outer self cycles" 7 outer.Span.self_cycles;
  Alcotest.(check int) "inner self cycles" 300 inner.Span.self_cycles;
  Alcotest.(check int) "outer self words" 3 outer.Span.self_words;
  Alcotest.(check int) "inner calls" 2 inner.Span.calls;
  Alcotest.(check int) "self times sum to the outermost span" 100 (Span.total_self_ns tr);
  Alcotest.(check int) "self cycles sum to the meter" 307 (Span.total_self_cycles tr);
  Span.reset tr;
  Alcotest.(check int) "reset" 0 (Span.total_self_ns tr)

let test_span_exception () =
  let now = ref 0 in
  let tr = Span.create ~clock:(fun () -> !now) ~cycles:(fun () -> 0) () in
  let l = Span.layer tr "l" in
  (try
     Span.span tr l (fun () ->
         now := 5;
         failwith "boom")
   with Failure _ -> ());
  Span.span tr l (fun () -> now := 8);
  Alcotest.(check int) "span closed on exception" 8 l.Span.self_ns;
  Alcotest.(check int) "both calls counted" 2 l.Span.calls

let member k = function
  | Cio_lintlib.Json_lite.Obj fields -> List.assoc_opt k fields
  | _ -> None

let test_result_json () =
  let line =
    Report.result_line ~correct:true ~attempted:1234 ~failed:0
      [
        Report.metric "ops_per_s" "1/s" 31415.926535897931;
        Report.metric "setup_s" "s" 0.0123;
        Report.metric "heap_top_mib" "MiB" 4.;
      ]
  in
  let json = Cio_lintlib.Json_lite.of_string line in
  let keys = match json with Cio_lintlib.Json_lite.Obj f -> List.map fst f | _ -> [] in
  Alcotest.(check (list string)) "exact keys" [ "correct"; "attempted"; "failed"; "metrics" ] keys;
  Alcotest.(check bool) "correct" true (member "correct" json = Some (Cio_lintlib.Json_lite.Bool true));
  Alcotest.(check (option int)) "attempted" (Some 1234)
    (Option.bind (member "attempted" json) Cio_lintlib.Json_lite.to_int_opt);
  let value name =
    match Option.bind (member "metrics" json) (member name) with
    | Some m -> (
        match (member "value" m, member "unit" m) with
        | Some (Cio_lintlib.Json_lite.Num v), Some (Cio_lintlib.Json_lite.Str u) -> (v, u)
        | _ -> Alcotest.fail "metric without value and unit")
    | None -> Alcotest.fail ("missing metric " ^ name)
  in
  Alcotest.(check (pair (float 0.) string)) "all digits kept" (31415.926535897931, "1/s")
    (value "ops_per_s");
  Alcotest.(check (pair (float 0.) string)) "integral value" (4., "MiB") (value "heap_top_mib");
  Alcotest.check_raises "NaN refused" (Invalid_argument "Report.number: not finite") (fun () ->
      ignore (Report.number Float.nan))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile with ten samples beyond" `Quick test_percentile_tail;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "calibrated rate" `Quick test_calibrated_rate;
          Alcotest.test_case "kernel is the ChaCha20 block" `Quick test_kernel_block;
        ] );
      ( "span",
        [
          Alcotest.test_case "self time from nested spans" `Quick test_self_time;
          Alcotest.test_case "span closes on exception" `Quick test_span_exception;
        ] );
      ("report", [ Alcotest.test_case "result line parses as JSON" `Quick test_result_json ]);
    ]

(* Telemetry: metrics registry, histogram quantiles, trace recorder, and
   end-to-end tracing of an experiment across both isolation boundaries. *)

module Metrics = Cio_telemetry.Metrics
module Trace = Cio_telemetry.Trace
module Kind = Cio_telemetry.Kind

let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- metrics: counters and gauges ----------------------------------- *)

let test_counter_basics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c" in
  check_int "fresh counter" 0 (Metrics.counter_value c);
  Metrics.inc c;
  Metrics.add c 41;
  check_int "inc + add" 42 (Metrics.counter_value c);
  let c' = Metrics.counter reg "c" in
  Metrics.inc c';
  check_int "idempotent handle shares state" 43 (Metrics.counter_value c)

let test_gauge_basics () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg "g" in
  Metrics.set g 7;
  Metrics.set g (-3);
  check_int "gauge keeps last value" (-3) (Metrics.gauge_value g)

let test_name_type_clash () =
  let reg = Metrics.create () in
  let _ = Metrics.counter reg "x" in
  Alcotest.check_raises "counter name reused as histogram"
    (Invalid_argument "Metrics.histogram: x is not a histogram") (fun () ->
      ignore (Metrics.histogram reg "x"))

let test_snapshot_and_json () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "reqs" in
  Metrics.add c 5;
  let h = Metrics.histogram reg "lat" in
  List.iter (Metrics.observe h) [ 1; 2; 100; 1000 ];
  (match Metrics.snapshot reg with
  | [ ("lat", Metrics.Histogram { n; min; max; _ }); ("reqs", Metrics.Counter 5) ] ->
      check_int "histogram n" 4 n;
      check_int "histogram min" 1 min;
      check_int "histogram max" 1000 max
  | _ -> Alcotest.fail "unexpected snapshot shape");
  let buf = Buffer.create 256 in
  Metrics.to_json buf reg;
  let js = Buffer.contents buf in
  Alcotest.(check bool) "json mentions both instruments" true
    (contains js "\"reqs\":5" && contains js "\"lat\"")

(* --- histogram properties (qcheck) ---------------------------------- *)

let values_arb = QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 2_000_000))

let prop_count_conservation =
  QCheck.Test.make ~name:"histogram count equals number of observations" ~count:300
    values_arb (fun vs ->
      let h = Metrics.histogram (Metrics.create ()) "h" in
      List.iter (Metrics.observe h) vs;
      Metrics.count h = List.length vs)

let prop_quantiles_monotone =
  QCheck.Test.make ~name:"quantiles are monotone and within [min,max]" ~count:300
    QCheck.(pair values_arb (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (vs, (qa, qb)) ->
      let h = Metrics.histogram (Metrics.create ()) "h" in
      List.iter (Metrics.observe h) vs;
      let qlo = min qa qb and qhi = max qa qb in
      let vlo = Metrics.quantile h qlo and vhi = Metrics.quantile h qhi in
      vlo <= vhi && Metrics.hmin h <= vlo && vhi <= Metrics.hmax h)

let prop_quantile_extremes =
  QCheck.Test.make ~name:"q=0 and q=1 hit observed extremes" ~count:300 values_arb
    (fun vs ->
      let h = Metrics.histogram (Metrics.create ()) "h" in
      List.iter (Metrics.observe h) vs;
      Metrics.quantile h 0.0 = Metrics.hmin h && Metrics.quantile h 1.0 = Metrics.hmax h)

(* --- trace recorder -------------------------------------------------- *)

let with_tracing ?(capacity = 65536) f =
  Trace.enable ~capacity;
  Fun.protect ~finally:(fun () ->
      Trace.disable ();
      Trace.reset_clock ())
    f

let test_trace_disabled_records_nothing () =
  Trace.disable ();
  Trace.span_begin ~cat:"x" "a";
  Trace.instant ~cat:"x" "b";
  Alcotest.(check bool) "off" false (Trace.on ());
  check_int "nothing recorded while disabled" 0 (List.length (Trace.events ()))

let test_trace_span_pairing () =
  with_tracing (fun () ->
      Trace.with_span ~cat:"t" "outer" (fun () ->
          Trace.instant ~arg:7 ~cat:"t" "tick");
      (try Trace.with_span ~cat:"t" "boom" (fun () -> failwith "x")
       with Failure _ -> ());
      let evs = Trace.events () in
      check_int "5 events" 5 (List.length evs);
      let phases = List.map (fun e -> e.Trace.phase) evs in
      Alcotest.(check bool) "B/E matched even on raise" true
        (phases = [ Trace.B; Trace.I; Trace.E; Trace.B; Trace.E ]);
      let tick = List.nth evs 1 in
      check_int "instant arg carried" 7 tick.Trace.arg)

let test_trace_ring_wrap () =
  with_tracing ~capacity:16 (fun () ->
      for i = 0 to 99 do
        Trace.instant ~arg:i ~cat:"w" "e"
      done;
      check_int "recorded counts everything" 100 (Trace.recorded ());
      check_int "ring keeps the newest capacity events" 16
        (List.length (Trace.events ()));
      check_int "dropped = recorded - capacity" 84 (Trace.dropped ());
      match List.rev (Trace.events ()) with
      | last :: _ -> check_int "newest survives the wrap" 99 last.Trace.arg
      | [] -> Alcotest.fail "empty ring")

(* The digest covers dropped events: renaming the first of 100 events,
   long gone from a 16-slot ring, changes it, and the same events give
   the same digest. Disabled recording leaves it alone. *)
let test_trace_digest_covers_dropped () =
  let digest_of first =
    with_tracing ~capacity:16 (fun () ->
        Trace.instant ~cat:"w" first;
        for i = 1 to 99 do
          Trace.instant ~arg:i ~cat:"w" "e"
        done;
        let d = Trace.digest () in
        Trace.disable ();
        Trace.instant ~cat:"w" "after";
        check_int "disabled recording leaves the digest" d (Trace.digest ());
        d)
  in
  let d = digest_of "start" in
  check_int "same events, same digest" d (digest_of "start");
  Alcotest.(check bool) "a dropped event's rename shows" true (d <> digest_of "begin")

let test_trace_chrome_json_shape () =
  with_tracing (fun () ->
      Trace.span_begin ~cat:"c" "s\"pan";
      Trace.span_end ~cat:"c" "s\"pan";
      let buf = Buffer.create 256 in
      Trace.to_chrome_json buf;
      let js = Buffer.contents buf in
      Alcotest.(check bool) "array brackets" true
        (String.length js > 2 && js.[0] = '[');
      Alcotest.(check bool) "escapes quotes in names" true
        (contains js "s\\\"pan");
      Alcotest.(check bool) "has begin and end phases" true
        (contains js "\"ph\":\"B\"" && contains js "\"ph\":\"E\""))

(* --- a traced e2 run crosses both boundaries ------------------------- *)

let null_ppf =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let test_traced_e2_spans_both_boundaries () =
  with_tracing ~capacity:262_144 (fun () ->
      Alcotest.(check bool) "e2 runs" true
        (Cio_experiments.Experiments.run_one null_ppf "e2");
      let evs = Trace.events () in
      check_int "nothing dropped" 0 (Trace.dropped ());
      let count cat ph =
        List.length
          (List.filter (fun e -> e.Trace.cat = cat && e.Trace.phase = ph) evs)
      in
      List.iter
        (fun cat ->
          let b = count cat Trace.B and e = count cat Trace.E in
          Alcotest.(check bool)
            (Printf.sprintf "cat %s has spans" cat)
            true (b > 0);
          check_int (Printf.sprintf "cat %s begin/end matched" cat) b e)
        [ Kind.l2; Kind.l5; Kind.experiment ])

(* --- one owner per count ---------------------------------------------- *)

(* Counts a unit owns and exports through its own accessor: the ring's,
   driver's and host model's counters, TCP's segment counts, the
   compartment's, the overload plane's (admission, breaker, retry
   budget), the buffer pool's and the sanitizer's. The process-wide
   registry keeps no second copy of any of them. *)
let unit_owned =
  [
    "ring.produced"; "ring.consumed"; "ring.full_misses"; "ring.empty_polls";
    "driver.tx_frames"; "driver.rx_frames"; "driver.hot_swaps";
    "host.faults"; "host.rx_dropped";
    "tcp.segments_in"; "tcp.segments_out"; "tcp.retransmits";
    "l5.denied"; "l5.crashes"; "l5.restarts";
    "overload.retry.granted"; "overload.retry.denied";
    "overload.admitted"; "overload.shed"; "overload.shed.admission";
    "overload.shed.deadline"; "overload.shed.breaker";
    "overload.breaker.state"; "overload.breaker.transitions";
    "bufpool.dropped";
    "mem.sanitizer.double_fetch"; "mem.sanitizer.double_fetch_mutated";
  ]

(* The first column of DESIGN.md §7's "Metric names" table: one
   backquoted instrument name per row. A name ending in [<config>]
   stands for the family of names that share its prefix. *)
let documented_instruments () =
  let path = Filename.concat (Helpers.repo_root ()) "DESIGN.md" in
  let lines = String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all) in
  let rec skip_to = function
    | [] -> Alcotest.fail "DESIGN.md has no \"### Metric names\" section"
    | l :: rest -> if l = "### Metric names" then rest else skip_to rest
  in
  let rec rows acc = function
    | [] -> List.rev acc
    | l :: _ when String.starts_with ~prefix:"#" l -> List.rev acc
    | l :: rest when String.starts_with ~prefix:"| `" l ->
        let name = List.nth (String.split_on_char '`' l) 1 in
        rows (name :: acc) rest
    | _ :: rest -> rows acc rest
  in
  rows [] (skip_to lines)

let test_one_owner_per_count () =
  let open Cio_core in
  let d =
    Testbed.attach_dual ~overload:Cio_overload.Plane.default_config
      (Testbed.create ~name:"owners" ~psk_id:"owners" ~seed:7L ())
  in
  let ch = Testbed.connect d in
  let rec until pred n = pred () || (n > 0 && (Testbed.pump d ~by:2_000L; until pred (n - 1))) in
  Alcotest.(check bool) "established" true (until (fun () -> Channel.is_established ch) 2000);
  (match
     Channel.send_admitted ~klass:Cio_overload.Admission.Interactive ch
       (Bytes.of_string "one owner")
   with
  | Channel.Sent -> ()
  | Channel.Shed _ -> Alcotest.fail "echo shed"
  | Channel.Send_error e -> Alcotest.fail (Cio_tls.Session.error_to_string e));
  let buf = Bytes.create 64 in
  Alcotest.(check bool) "echo received" true (until (fun () -> Channel.recv_into ch buf >= 0) 2000);
  (match Dual.overload d.Testbed.unit_ with
  | Some plane ->
      Alcotest.(check int) "the plane counts its admission" 1 (Cio_overload.Plane.admitted plane)
  | None -> Alcotest.fail "overload plane missing");
  let registered = List.map fst (Metrics.snapshot Metrics.default) in
  List.iter
    (fun n ->
      if List.mem n registered then
        Alcotest.failf "%s has a unit owner, yet the registry counts it too" n)
    unit_owned;
  let documented = documented_instruments () in
  let family = "<config>" in
  let families, fixed = List.partition (String.ends_with ~suffix:family) documented in
  let prefixes =
    List.map (fun f -> String.sub f 0 (String.length f - String.length family)) families
  in
  let listed n =
    List.mem n fixed || List.exists (fun p -> String.starts_with ~prefix:p n) prefixes
  in
  Alcotest.(check (list string)) "registered but not in DESIGN.md §7" []
    (List.filter (fun n -> not (listed n)) registered);
  Alcotest.(check (list string)) "in DESIGN.md §7 but not registered" []
    (List.filter (fun n -> not (List.mem n registered)) fixed)

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
    Alcotest.test_case "name/type clash rejected" `Quick test_name_type_clash;
    Alcotest.test_case "snapshot and json" `Quick test_snapshot_and_json;
    Helpers.qtest prop_count_conservation;
    Helpers.qtest prop_quantiles_monotone;
    Helpers.qtest prop_quantile_extremes;
    Alcotest.test_case "trace disabled records nothing" `Quick
      test_trace_disabled_records_nothing;
    Alcotest.test_case "trace span pairing" `Quick test_trace_span_pairing;
    Alcotest.test_case "trace ring wrap" `Quick test_trace_ring_wrap;
    Alcotest.test_case "trace digest covers dropped events" `Quick
      test_trace_digest_covers_dropped;
    Alcotest.test_case "chrome json shape" `Quick test_trace_chrome_json_shape;
    Alcotest.test_case "traced e2 spans both boundaries" `Slow
      test_traced_e2_spans_both_boundaries;
    Alcotest.test_case "one owner per count" `Quick test_one_owner_per_count;
  ]

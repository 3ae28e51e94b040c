(* Tests for the overload-control plane (lib/overload) and its threading
   through the datapath: admission classes, breaker state machine, retry
   budget + decorrelated jitter, deadline propagation, bounded TX queue,
   typed driver backpressure — plus the two acceptance properties: the
   watchdog backoff law under a shared retry budget, and the composed
   stall/ring-freeze campaign with the plane on (breaker re-closed, zero
   lost admitted frames, overload.* metrics consistent with the report). *)

open Cio_util
open Cio_cionet
open Cio_overload
module Metrics = Cio_telemetry.Metrics

let accepted = function Pressure.Accepted -> true | Pressure.Backpressure _ -> false

(* --- admission ---------------------------------------------------------- *)

let test_admission_control_exempt () =
  let clock = ref 0L in
  let a = Admission.create ~rate_per_sec:0 ~burst:4 ~now:(fun () -> !clock) in
  for _ = 1 to 4 do
    Alcotest.(check bool) "bucket token admits interactive" true
      (accepted (Admission.admit a Admission.Interactive))
  done;
  Alcotest.(check bool) "dry bucket sheds interactive" false
    (accepted (Admission.admit a Admission.Interactive));
  for _ = 1 to 16 do
    Alcotest.(check bool) "control admitted on an empty bucket" true
      (accepted (Admission.admit a Admission.Control))
  done;
  Alcotest.(check int) "control exemption leaves no token debt" 0 (Admission.tokens a)

let test_admission_bulk_shed_first () =
  (* burst 8, 25% reserve = 2 tokens: bulk may spend down to the reserve
     (6 admits), then sheds while interactive still has 2 tokens. *)
  let clock = ref 0L in
  let a = Admission.create ~rate_per_sec:0 ~burst:8 ~now:(fun () -> !clock) in
  let bulk_ok = ref 0 in
  for _ = 1 to 10 do
    if accepted (Admission.admit a Admission.Bulk) then incr bulk_ok
  done;
  Alcotest.(check int) "bulk stops at the reserve" 6 !bulk_ok;
  Alcotest.(check int) "reserve intact" 2 (Admission.tokens a);
  Alcotest.(check bool) "interactive spends the reserve" true
    (accepted (Admission.admit a Admission.Interactive));
  Alcotest.(check int) "bulk sheds counted per class" 4 (Admission.shed_of a Admission.Bulk)

let test_admission_refill_deterministic () =
  let run () =
    let clock = ref 0L in
    let a = Admission.create ~rate_per_sec:1_000 ~burst:4 ~now:(fun () -> !clock) in
    let log = ref [] in
    for i = 1 to 40 do
      (* 1 ms of simulated time per iteration = exactly one token. *)
      clock := Int64.add !clock 1_000_000L;
      let klass = if i mod 3 = 0 then Admission.Bulk else Admission.Interactive in
      log := accepted (Admission.admit a klass) :: !log;
      log := accepted (Admission.admit a klass) :: !log
    done;
    (!log, Admission.admitted_total a, Admission.shed_total a)
  in
  let l1, ad1, sh1 = run () and l2, ad2, sh2 = run () in
  Alcotest.(check bool) "same clock, same admissions" true (l1 = l2);
  Alcotest.(check int) "same admitted total" ad1 ad2;
  Alcotest.(check int) "same shed total" sh1 sh2;
  (* 1 token/ms against 2 requests/ms: the bucket paces to the rate. *)
  Alcotest.(check bool) "admitted tracks the refill rate" true (ad1 >= 40 && ad1 <= 44)

(* --- breaker ------------------------------------------------------------ *)

let test_breaker_state_walk () =
  let b = Breaker.create ~threshold:2 ~cooldown:2 in
  Alcotest.(check string) "starts closed" "closed" (Breaker.state_name (Breaker.state b));
  Breaker.failure b;
  Alcotest.(check string) "below threshold stays closed" "closed"
    (Breaker.state_name (Breaker.state b));
  Breaker.failure b;
  Alcotest.(check string) "threshold consecutive failures open it" "open"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check bool) "open denies work during cooldown" false (Breaker.allow b);
  Alcotest.(check bool) "cooldown exhaustion grants the half-open probe" true
    (Breaker.allow b);
  Alcotest.(check string) "now half-open" "half-open" (Breaker.state_name (Breaker.state b));
  Breaker.failure b;
  Alcotest.(check string) "failed probe re-opens" "open"
    (Breaker.state_name (Breaker.state b));
  ignore (Breaker.allow b);
  ignore (Breaker.allow b);
  Breaker.success b;
  Alcotest.(check string) "success re-closes from any state" "closed"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check int) "every edge counted" 5 (Breaker.transitions b);
  Breaker.failure b;
  Alcotest.(check int) "single failure after re-close stays closed" 1
    (Breaker.consecutive_failures b);
  Alcotest.(check string) "still closed" "closed" (Breaker.state_name (Breaker.state b))

(* --- retry budget ------------------------------------------------------- *)

let test_retry_budget_exhaustion_and_refill () =
  let rb =
    Retry_budget.create ~capacity:2 ~refill_percent:50 ~cap_ns:200_000_000L ~rng:(Rng.create 9L)
  in
  Alcotest.(check bool) "token 1" true (Retry_budget.try_retry rb);
  Alcotest.(check bool) "token 2" true (Retry_budget.try_retry rb);
  Alcotest.(check bool) "exhausted budget refuses" false (Retry_budget.try_retry rb);
  Alcotest.(check int) "denial counted" 1 (Retry_budget.denied rb);
  Retry_budget.on_success rb;
  Alcotest.(check bool) "half a token is not a retry" false (Retry_budget.try_retry rb);
  Retry_budget.on_success rb;
  Alcotest.(check bool) "successes earn the token back" true (Retry_budget.try_retry rb);
  Alcotest.(check int) "grants counted" 3 (Retry_budget.granted rb)

let test_retry_backoff_jitter_law () =
  let base = 1_000_000L (* the budget's fixed backoff floor *) and cap = 8_000_000L in
  let sample seed =
    let rb = Retry_budget.create ~capacity:16 ~refill_percent:20 ~cap_ns:cap ~rng:(Rng.create seed) in
    List.init 32 (fun _ -> Retry_budget.backoff_ns rb)
  in
  let s = sample 3L in
  let prev = ref base in
  List.iter
    (fun d ->
      Alcotest.(check bool) "never below base" true (Int64.compare d base >= 0);
      Alcotest.(check bool) "never above cap" true (Int64.compare d cap <= 0);
      Alcotest.(check bool) "decorrelated: at most 3x the previous delay" true
        (Int64.compare d (Int64.min cap (Int64.mul 3L (Int64.max base !prev))) <= 0);
      prev := d)
    s;
  Alcotest.(check bool) "same seed, same jitter sequence" true (s = sample 3L);
  let rb = Retry_budget.create ~capacity:16 ~refill_percent:20 ~cap_ns:cap ~rng:(Rng.create 3L) in
  List.iter (fun _ -> ignore (Retry_budget.backoff_ns rb)) s;
  Retry_budget.reset_backoff rb;
  Alcotest.(check bool) "reset collapses the anchor to base" true
    (Int64.compare (Retry_budget.backoff_ns rb) (Int64.mul 3L base) <= 0)

(* --- deadlines ---------------------------------------------------------- *)

let test_deadline_propagation () =
  Alcotest.(check bool) "none never expires" false
    (Deadline.expired Deadline.none ~now:Int64.max_int);
  let d = Deadline.after ~now:100L ~budget_ns:50L in
  Alcotest.(check bool) "fresh deadline is live" false (Deadline.expired d ~now:100L);
  Alcotest.(check bool) "live at the edge" false (Deadline.expired d ~now:150L);
  Alcotest.(check bool) "blown past the budget" true (Deadline.expired d ~now:151L);
  Alcotest.(check bool) "remaining clamps at zero" true
    (Int64.equal (Deadline.remaining_ns d ~now:400L) 0L);
  Alcotest.(check bool) "non-positive budget means none" true
    (Deadline.is_none (Deadline.after ~now:5L ~budget_ns:0L));
  (* The plane sheds a blown deadline before anything else. *)
  let clock = ref 0L in
  let plane = Plane.create ~rng:(Rng.create 1L) ~now:(fun () -> !clock) () in
  let d = Plane.deadline plane in
  clock := Int64.add !clock (Int64.add (Plane.config plane).Plane.deadline_budget_ns 1L);
  (match Plane.admit ~deadline:d plane Admission.Interactive with
  | Pressure.Backpressure Pressure.Deadline -> ()
  | _ -> Alcotest.fail "blown deadline must shed with the Deadline reason");
  Alcotest.(check int) "counted as deadline shed" 1 (Plane.deadline_shed plane)

(* --- bounded TX queue in the stack -------------------------------------- *)

let test_stack_bounded_txq_sheds () =
  let nif_a, _nif_b =
    Cio_tcpip.Netif.loopback_pair ~mac_a:Helpers.mac_a ~mac_b:Helpers.mac_b ~mtu:1500
  in
  let clock = ref 0L in
  (* A tx_burst that accepts nothing: the ring is permanently full from
     the stack's point of view, so the bounded queue must shed, not grow. *)
  let st =
    Cio_tcpip.Stack.create ~tx_burst:(fun _ -> 0) ~tx_queue_limit:4 ~netif:nif_a
      ~ip:Helpers.ip_a
      ~neighbors:[ (Helpers.ip_b, Helpers.mac_b) ]
      ~now:(fun () -> !clock)
      ~rng:(Rng.create 2L) ()
  in
  let qf0 =
    Metrics.counter_value (Metrics.counter Metrics.default "overload.bp.queue_full")
  in
  (* Ten frames: one SYN per new connection. *)
  for i = 1 to 10 do
    ignore
      (Cio_tcpip.Tcp.connect (Cio_tcpip.Stack.tcp st) ~dst:Helpers.ip_b ~dst_port:(2000 + i) ())
  done;
  let c = Cio_tcpip.Stack.counters st in
  Alcotest.(check int) "queue holds exactly the limit" 4 (Cio_tcpip.Stack.tx_backlog st);
  Alcotest.(check int) "excess shed, not queued" 6 c.Cio_tcpip.Stack.dropped;
  Alcotest.(check string) "drop reason names backpressure" "tx backpressure: queue full"
    c.Cio_tcpip.Stack.last_drop_reason;
  let qf1 =
    Metrics.counter_value (Metrics.counter Metrics.default "overload.bp.queue_full")
  in
  Alcotest.(check int) "sheds surface as overload.bp.queue_full" 6 (qf1 - qf0)

(* --- driver ring-full backpressure -------------------------------------- *)

(* TX frames the host has not consumed yet, from the ring's counters. *)
let tx_in_flight drv =
  let c = Ring.counters (Driver.tx_ring drv) in
  c.Ring.produced - c.Ring.consumed

let test_driver_ring_full_backpressure () =
  let cfg =
    { Config.default with Config.ring_slots = 8;
      positioning = Config.Inline { data_capacity = 2048 } }
  in
  let drv = Driver.create ~name:"test-overload-bp" cfg in
  (* No host poll: the TX ring fills and stays full. *)
  let payload = Bytes.make 64 'x' in
  for i = 1 to 8 do
    Alcotest.(check bool)
      (Printf.sprintf "slot %d accepted" i)
      true
      (Driver.transmit drv payload)
  done;
  Alcotest.(check int) "occupancy at capacity" 8 (tx_in_flight drv);
  let rf0 =
    Metrics.counter_value (Metrics.counter Metrics.default "overload.bp.ring_full")
  in
  Alcotest.(check bool) "full ring refuses a frame" false (Driver.transmit drv payload);
  Alcotest.(check int) "burst accepts nothing on a full ring" 0
    (Driver.transmit_burst drv [| payload; payload |]);
  let rf1 =
    Metrics.counter_value (Metrics.counter Metrics.default "overload.bp.ring_full")
  in
  Alcotest.(check int) "refusals counted" 2 (rf1 - rf0)

(* --- property: watchdog backoff law under a shared retry budget --------- *)

(* The multiplier law the watchdog promises even when resets draw from a
   shared (exhaustible) retry budget: powers of two only, capped at
   max_backoff, advancing at most one doubling at a time, and collapsing
   to exactly 1 on real progress. A deferred reset (budget dry, breaker
   open) must not advance the multiplier — deferral is not backoff. *)
let prop_watchdog_backoff_under_budget =
  let open QCheck in
  let op_gen = Gen.(frequency [ (4, return `Stall_tick); (1, return `Progress) ]) in
  Test.make ~name:"watchdog backoff: doubling/cap/reset law holds under retry budget"
    ~count:80
    (make
       ~print:(fun ops ->
         String.concat ""
           (List.map (function `Stall_tick -> "s" | `Progress -> "p") ops))
       Gen.(list_size (int_range 20 300) op_gen))
    (fun ops ->
      let cfg =
        { Config.default with Config.ring_slots = 16;
          positioning = Config.Inline { data_capacity = 2048 } }
      in
      let drv = Driver.create ~name:"test-overload-wd" cfg in
      let sent = ref 0 in
      let host = Host_model.create ~driver:drv ~transmit:(fun _ -> incr sent) in
      let breaker = Breaker.create ~threshold:3 ~cooldown:4 in
      let rb =
        Retry_budget.create ~capacity:3 ~refill_percent:50 ~cap_ns:200_000_000L ~rng:(Rng.create 5L)
      in
      let wd =
        Watchdog.create ~poll_budget:2 ~max_backoff:8 ~breaker ~retry_budget:rb drv
      in
      let ok = ref true in
      let prev = ref (Watchdog.current_backoff wd) in
      let check_law after_progress =
        let b = Watchdog.current_backoff wd in
        let is_pow2 = b > 0 && b land (b - 1) = 0 in
        if not (is_pow2 && b <= 8) then ok := false;
        (* One tick moves the multiplier by at most one doubling, and
           never downward except to 1. *)
        if not (b = !prev || b = 2 * !prev || b = 1) then ok := false;
        if after_progress && b <> 1 then ok := false;
        prev := b
      in
      List.iter
        (fun op ->
          match op with
          | `Stall_tick ->
              (* The host does not poll: pending TX makes the deadline arm. *)
              if tx_in_flight drv = 0 then
                ignore (Driver.transmit drv (Bytes.make 8 's'));
              Watchdog.tick wd ~expecting_rx:false;
              check_law false
          | `Progress ->
              Host_model.deliver_rx host (Bytes.make 8 'p');
              Host_model.poll host;
              ignore (Driver.poll drv);
              Watchdog.tick wd ~expecting_rx:false;
              check_law true)
        ops;
      !ok)

(* --- property: composed faults with the plane on ------------------------ *)

(* The acceptance property: a stall + ring-freeze campaign with the
   overload plane on must survive with zero lost admitted in-flight
   frames and a re-closed breaker. *)
let prop_composed_faults_breaker_recloses =
  let open QCheck in
  Test.make ~name:"composed stall+freeze with plane on: re-closed breaker, zero lost"
    ~count:5 (int_bound 1000) (fun seed ->
      let open Cio_fault in
      let plan =
        {
          Plan.seed = Int64.of_int seed;
          injections =
            [
              { Plan.at_step = 2_000; kind = Plan.Host (Host_model.Stall 600) };
              { Plan.at_step = 9_000; kind = Plan.Host (Host_model.Ring_freeze 600) };
            ];
        }
      in
      let config =
        {
          Campaign.default_config with
          Campaign.watchdog_budget = 120;
          max_steps = 150_000;
          overload = Some { Plane.default_config with Plane.breaker_threshold = 2 };
        }
      in
      let r = Campaign.run ~config plan in
      r.Campaign.survived
      && r.Campaign.lost = 0
      && r.Campaign.leaks = 0
      && Campaign.all_recovered r
      && r.Campaign.breaker_state = "closed"
      && r.Campaign.breaker_transitions mod 2 = 0
      && r.Campaign.admitted > 0)

(* --- E22: graceful degradation under offered load ------------------------ *)

let test_loadgen_graceful_degradation () =
  let open Cio_fault in
  let cfg ~rate ~on = { Loadgen.offered_per_mille = rate; overload = on } in
  let on_1x = Loadgen.run ~config:(cfg ~rate:500 ~on:true) ~seed:7L in
  let on_4x = Loadgen.run ~config:(cfg ~rate:2_000 ~on:true) ~seed:7L in
  let off_4x = Loadgen.run ~config:(cfg ~rate:2_000 ~on:false) ~seed:7L in
  (* Plane on: goodput at 4x offered within 20% of the saturation level,
     latency bounded by the deadline, nothing stranded. *)
  Alcotest.(check bool) "plane on holds goodput at 4x offered" true
    (10 * on_4x.Loadgen.timely >= 8 * on_1x.Loadgen.timely);
  Alcotest.(check bool) "plane on bounds p99 by the deadline" true
    (on_4x.Loadgen.p99_rtt_steps <= Loadgen.deadline_steps);
  Alcotest.(check int) "plane on strands no sealed bytes" 0 on_4x.Loadgen.backlog_bytes;
  Alcotest.(check bool) "the excess was shed, not queued" true
    (on_4x.Loadgen.shed > on_4x.Loadgen.sent);
  (* Plane off: classic congestion collapse. *)
  Alcotest.(check bool) "plane off collapses goodput" true
    (2 * off_4x.Loadgen.timely < on_4x.Loadgen.timely);
  Alcotest.(check bool) "plane off latency blows through the deadline" true
    (off_4x.Loadgen.p99_rtt_steps > 4 * Loadgen.deadline_steps);
  Alcotest.(check bool) "plane off strands sealed bytes in queues" true
    (off_4x.Loadgen.backlog_bytes > 0);
  Alcotest.(check int) "plane off sheds nothing (and pays for it)" 0 off_4x.Loadgen.shed;
  (* Determinism: same seed + config, byte-identical report. *)
  let again = Loadgen.run ~config:(cfg ~rate:2_000 ~on:true) ~seed:7L in
  Alcotest.(check bool) "same seed, identical report" true (again = on_4x)

let suite =
  [
    Alcotest.test_case "admission: control exempt" `Quick test_admission_control_exempt;
    Alcotest.test_case "admission: bulk shed first" `Quick test_admission_bulk_shed_first;
    Alcotest.test_case "admission: refill deterministic" `Quick
      test_admission_refill_deterministic;
    Alcotest.test_case "breaker: state walk + metrics" `Quick test_breaker_state_walk;
    Alcotest.test_case "retry budget: exhaustion and refill" `Quick
      test_retry_budget_exhaustion_and_refill;
    Alcotest.test_case "retry budget: jitter law" `Quick test_retry_backoff_jitter_law;
    Alcotest.test_case "deadline: propagation and shed" `Quick test_deadline_propagation;
    Alcotest.test_case "stack: bounded TX queue sheds" `Quick test_stack_bounded_txq_sheds;
    Alcotest.test_case "driver: typed ring-full backpressure" `Quick
      test_driver_ring_full_backpressure;
    Helpers.qtest prop_watchdog_backoff_under_budget;
    Helpers.qtest prop_composed_faults_breaker_recloses;
    Alcotest.test_case "E22: graceful degradation under load" `Slow
      test_loadgen_graceful_degradation;
  ]

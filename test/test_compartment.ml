(* Compartment tests: owner-only buffers, denials, and crossing costs
   (gate vs TEE switch). *)

open Cio_util
open Cio_compartment

let world ?(crossing = Compartment.Gate) () =
  let w = Compartment.create ~crossing () in
  let app = Compartment.add_domain w ~name:"app" in
  let io = Compartment.add_domain w ~name:"io" in
  (w, app, io)

let test_owner_access () =
  let w, app, _ = world () in
  let b = Compartment.alloc w ~owner:app 64 in
  Compartment.write w ~as_:app b ~pos:0 (Bytes.of_string "mine");
  Helpers.check_bytes "owner reads own buffer" (Bytes.of_string "mine")
    (Compartment.read w ~as_:app b ~pos:0 ~len:4)

let test_foreign_access_denied () =
  let w, app, io = world () in
  let b = Compartment.alloc w ~owner:app 64 in
  (match Compartment.read w ~as_:io b ~pos:0 ~len:4 with
  | _ -> Alcotest.fail "read must be denied"
  | exception Compartment.Access_violation _ -> ());
  (match Compartment.write w ~as_:io b ~pos:0 (Bytes.of_string "x") with
  | _ -> Alcotest.fail "write must be denied"
  | exception Compartment.Access_violation _ -> ());
  Alcotest.(check int) "denials counted" 2 (Compartment.counters w).Compartment.denied

let test_out_of_bounds_denied () =
  let w, app, _ = world () in
  let b = Compartment.alloc w ~owner:app 16 in
  match Compartment.read w ~as_:app b ~pos:10 ~len:10 with
  | _ -> Alcotest.fail "oob must be denied"
  | exception Compartment.Access_violation _ -> ()

let test_gate_crossing_cost () =
  let w, app, io = world () in
  let m = Compartment.meter w in
  let result = Compartment.call w ~caller:app ~callee:io (fun () -> 40 + 2) in
  Alcotest.(check int) "call result" 42 result;
  Alcotest.(check int) "in + out" (2 * Cost.default.Cost.gate_crossing)
    (Cost.cycles_of m Cost.Gate);
  Alcotest.(check int) "counted" 1 (Compartment.counters w).Compartment.crossings

let test_same_domain_call_free () =
  let w, app, _ = world () in
  ignore (Compartment.call w ~caller:app ~callee:app (fun () -> ()));
  Alcotest.(check int) "no charge" 0 (Cost.cycles_of (Compartment.meter w) Cost.Gate)

let test_tee_switch_much_more_expensive () =
  (* E8's core comparison at unit level. *)
  let wg, a1, i1 = world ~crossing:Compartment.Gate () in
  let wt, a2, i2 = world ~crossing:Compartment.Tee_switch () in
  Compartment.call wg ~caller:a1 ~callee:i1 ignore;
  Compartment.call wt ~caller:a2 ~callee:i2 ignore;
  let gate = Cost.cycles_of (Compartment.meter wg) Cost.Gate in
  let tee = Cost.cycles_of (Compartment.meter wt) Cost.Gate in
  Alcotest.(check bool) "tee >> gate (at least 10x)" true (tee >= 10 * gate)

let test_crossing_charged_on_exception () =
  let w, app, io = world () in
  (try Compartment.call w ~caller:app ~callee:io (fun () -> failwith "inner") with Failure _ -> ());
  Alcotest.(check int) "exit leg still charged" (2 * Cost.default.Cost.gate_crossing)
    (Cost.cycles_of (Compartment.meter w) Cost.Gate)

(* A step built once crosses with no allocation: [call]'s exit leg is a
   top-level function, not a closure per crossing. *)
let test_call_allocates_nothing () =
  let w, app, io = world () in
  let m = Compartment.meter w in
  let runs = ref 0 in
  let step () = incr runs in
  let calls = 1000 in
  Gc.minor ();
  let minor0 = Gc.minor_words () in
  for _ = 1 to calls do
    Compartment.call w ~caller:app ~callee:io step
  done;
  let minor = int_of_float (Gc.minor_words () -. minor0) in
  Alcotest.(check int) "steps run" calls !runs;
  Alcotest.(check int) "minor words" 0 minor;
  Alcotest.(check int) "crossings" calls (Compartment.counters w).Compartment.crossings;
  Alcotest.(check int) "2 x gate_crossing each" (calls * 2 * Cost.default.Cost.gate_crossing)
    (Cost.cycles_of m Cost.Gate)

let test_charge_crossing_mailbox () =
  let w, _, _ = world () in
  Compartment.charge_crossing w;
  Compartment.charge_crossing w;
  Alcotest.(check int) "two handoffs" 2 (Compartment.counters w).Compartment.crossings;
  Alcotest.(check int) "cycles" (4 * Cost.default.Cost.gate_crossing)
    (Cost.cycles_of (Compartment.meter w) Cost.Gate)

let prop_no_grant_no_access =
  QCheck.Test.make ~name:"no grant => no access, ever" ~count:100
    QCheck.(pair (int_bound 63) bool)
    (fun (pos, write) ->
      let w, app, io = world () in
      let b = Compartment.alloc w ~owner:app 64 in
      match
        if write then Compartment.write w ~as_:io b ~pos (Bytes.of_string "x")
        else ignore (Compartment.read w ~as_:io b ~pos ~len:1)
      with
      | _ -> false
      | exception Compartment.Access_violation _ -> true)

let suite =
  [
    Alcotest.test_case "owner access" `Quick test_owner_access;
    Alcotest.test_case "foreign access denied" `Quick test_foreign_access_denied;
    Alcotest.test_case "out of bounds" `Quick test_out_of_bounds_denied;
    Alcotest.test_case "gate crossing cost" `Quick test_gate_crossing_cost;
    Alcotest.test_case "same-domain call free" `Quick test_same_domain_call_free;
    Alcotest.test_case "tee switch >> gate (E8)" `Quick test_tee_switch_much_more_expensive;
    Alcotest.test_case "crossing charged on exception" `Quick test_crossing_charged_on_exception;
    Alcotest.test_case "1000 calls of a built-once step allocate nothing" `Quick
      test_call_allocates_nothing;
    Alcotest.test_case "mailbox handoff charging" `Quick test_charge_crossing_mailbox;
    Helpers.qtest prop_no_grant_no_access;
  ]

(* Discrete-event engine, link and adversary tests. *)

open Cio_netsim

let test_engine_time_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e ~time:30L (fun () -> log := 3 :: !log);
  Engine.schedule_at e ~time:10L (fun () -> log := 1 :: !log);
  Engine.schedule_at e ~time:20L (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "ordered" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int64) "clock at last event" 30L (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule_at e ~time:7L (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "ties in scheduling order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_horizon () =
  let e = Engine.create () in
  let ran = ref [] in
  Engine.schedule_at e ~time:10L (fun () -> ran := 10 :: !ran);
  Engine.schedule_at e ~time:50L (fun () -> ran := 50 :: !ran);
  Engine.run ~until:20L e;
  Alcotest.(check (list int)) "only in-horizon events" [ 10 ] (List.rev !ran);
  Alcotest.(check int64) "clock at horizon" 20L (Engine.now e);
  Alcotest.(check int) "one still pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "resumes" [ 10; 50 ] (List.rev !ran)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.schedule_at e ~time:5L (fun () ->
      incr hits;
      Engine.schedule e ~after:5L (fun () -> incr hits));
  Engine.run e;
  Alcotest.(check int) "chained events" 2 !hits;
  Alcotest.(check int64) "final time" 10L (Engine.now e)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule_at e ~time:10L ignore;
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Engine.schedule_at e ~time:5L ignore)

let test_engine_stop () =
  let e = Engine.create () in
  let ran = ref 0 in
  Engine.schedule_at e ~time:1L (fun () ->
      incr ran;
      Engine.stop e);
  Engine.schedule_at e ~time:2L (fun () -> incr ran);
  Engine.run e;
  Alcotest.(check int) "stopped after first" 1 !ran

let test_link_latency () =
  let e = Engine.create () in
  let link = Link.create ~latency_ns:1000L ~gbps:8.0 e in
  let arrival = ref (-1L) in
  Link.attach link Link.B (fun _ -> arrival := Engine.now e);
  Link.send link ~src:Link.A (Bytes.make 100 'x');
  Engine.run e;
  (* 100 B at 8 Gbit/s = 100 ns serialization + 1000 ns latency. *)
  Alcotest.(check int64) "arrival time" 1100L !arrival

let test_link_fifo_serialization () =
  let e = Engine.create () in
  let link = Link.create ~latency_ns:0L ~gbps:8.0 e in
  let arrivals = ref [] in
  Link.attach link Link.B (fun _ -> arrivals := Engine.now e :: !arrivals);
  Link.send link ~src:Link.A (Bytes.make 100 'x');
  Link.send link ~src:Link.A (Bytes.make 100 'y');
  Engine.run e;
  (* Second frame queues behind the first: 100 ns then 200 ns. *)
  Alcotest.(check (list int64)) "fifo" [ 100L; 200L ] (List.rev !arrivals)

let test_link_counters () =
  let e = Engine.create () in
  let link = Link.create e in
  Link.attach link Link.B ignore;
  Link.send link ~src:Link.A (Bytes.make 10 'x');
  Link.send link ~src:Link.A (Bytes.make 20 'x');
  Alcotest.(check int) "frames" 2 (Link.frames_sent link ~src:Link.A);
  Alcotest.(check int) "bytes" 30 (Link.bytes_sent link ~src:Link.A);
  Alcotest.(check int) "other direction untouched" 0 (Link.frames_sent link ~src:Link.B)

let test_link_tamper_drop () =
  let e = Engine.create () in
  let link = Link.create e in
  let got = ref 0 in
  Link.attach link Link.B (fun _ -> incr got);
  Link.set_tamper link ~src:Link.A (Some (fun _ -> []));
  Link.send link ~src:Link.A (Bytes.make 10 'x');
  Engine.run e;
  Alcotest.(check int) "dropped" 0 !got

let test_link_tamper_duplicate () =
  let e = Engine.create () in
  let link = Link.create e in
  let got = ref 0 in
  Link.attach link Link.B (fun _ -> incr got);
  Link.set_tamper link ~src:Link.A
    (Some (fun f -> [ { Link.extra_delay_ns = 0L; frame = f }; { Link.extra_delay_ns = 10L; frame = f } ]));
  Link.send link ~src:Link.A (Bytes.make 10 'x');
  Engine.run e;
  Alcotest.(check int) "duplicated" 2 !got

let test_link_transit_tap () =
  let e = Engine.create () in
  let link = Link.create e in
  Link.attach link Link.B ignore;
  let seen = ref [] in
  Link.set_transit_tap link (Some (fun ~time:_ ~src frame -> seen := (src, Bytes.length frame) :: !seen));
  Link.send link ~src:Link.A (Bytes.make 42 'x');
  Engine.run e;
  Alcotest.(check int) "tapped" 1 (List.length !seen);
  match !seen with
  | [ (Link.A, 42) ] -> ()
  | _ -> Alcotest.fail "wrong tap record"

let test_adversary_benign_passthrough () =
  let rng = Cio_util.Rng.create 1L in
  let adv = Adversary.create ~rng Adversary.benign in
  let tamper = Adversary.tamper adv in
  let out = tamper (Bytes.of_string "frame") in
  Alcotest.(check int) "passes one" 1 (List.length out);
  Alcotest.(check int) "seen" 1 (Adversary.stats adv).Adversary.seen

let test_adversary_deterministic () =
  let run seed =
    let rng = Cio_util.Rng.create seed in
    let adv = Adversary.create ~rng Adversary.hostile in
    let tamper = Adversary.tamper adv in
    for i = 0 to 199 do
      ignore (tamper (Bytes.make 50 (Char.chr (i land 0xFF))))
    done;
    let s = Adversary.stats adv in
    (s.Adversary.dropped, s.Adversary.duplicated, s.Adversary.corrupted, s.Adversary.reordered, s.Adversary.replayed)
  in
  Alcotest.(check bool) "same seed, same behaviour" true (run 5L = run 5L);
  Alcotest.(check bool) "different seed, different behaviour" true (run 5L <> run 6L)

let test_adversary_drop_rate () =
  let rng = Cio_util.Rng.create 2L in
  let adv = Adversary.create ~rng { Adversary.benign with Adversary.drop = 1.0 } in
  let tamper = Adversary.tamper adv in
  for _ = 1 to 50 do
    ignore (tamper (Bytes.make 10 'x'))
  done;
  Alcotest.(check int) "all dropped" 50 (Adversary.stats adv).Adversary.dropped

let test_adversary_reorder_holds_frame () =
  let rng = Cio_util.Rng.create 3L in
  let adv = Adversary.create ~rng { Adversary.benign with Adversary.reorder = 1.0 } in
  let tamper = Adversary.tamper adv in
  let first = tamper (Bytes.of_string "one") in
  Alcotest.(check int) "held back" 0 (List.length first);
  let second = tamper (Bytes.of_string "two") in
  (* The held frame is released alongside; "two" is held in its place. *)
  Alcotest.(check int) "released late" 1 (List.length second);
  Helpers.check_bytes "released frame is the held one" (Bytes.of_string "one")
    (List.hd second).Link.frame

(* --- frame ownership -------------------------------------------------- *)

(* A link whose B end owns what it is given: it records each delivery
   (time, buffer, contents), then scribbles over the buffer as a
   receiver reusing it would. *)
let scribbling_link ?tamper () =
  let e = Engine.create () in
  let link = Link.create ~latency_ns:1000L ~gbps:8.0 e in
  let got = ref [] in
  Link.attach link Link.B (fun f ->
      got := (Engine.now e, f, Bytes.to_string f) :: !got;
      Bytes.fill f 0 (Bytes.length f) '\xEE');
  Option.iter (fun t -> Link.set_tamper link ~src:Link.A (Some t)) tamper;
  (e, link, got)

let test_link_untampered_delivers_once () =
  let e, link, got = scribbling_link () in
  let frame = Bytes.make 100 'x' in
  Link.send link ~src:Link.A frame;
  Alcotest.(check int) "one engine event" 1 (Engine.pending e);
  Engine.run e;
  match List.rev !got with
  | [ (time, f, contents) ] ->
      (* 100 B at 8 Gbit/s = 100 ns serialization + 1000 ns latency. *)
      Alcotest.(check int64) "same arrival time" 1100L time;
      Alcotest.(check bool) "the sender's buffer, handed over" true (f == frame);
      Alcotest.(check string) "contents" (String.make 100 'x') contents
  | l -> Alcotest.failf "%d deliveries" (List.length l)

let test_adversary_duplicate_is_a_copy () =
  let rng = Cio_util.Rng.create 4L in
  let adv = Adversary.create ~rng { Adversary.benign with Adversary.duplicate = 1.0 } in
  let e, link, got = scribbling_link ~tamper:(Adversary.tamper adv) () in
  Link.send link ~src:Link.A (Bytes.make 60 'd');
  Engine.run e;
  match List.rev !got with
  | [ (_, a, first); (_, b, second) ] ->
      Alcotest.(check bool) "two distinct buffers" true (a != b);
      Alcotest.(check string) "original" (String.make 60 'd') first;
      Alcotest.(check string) "duplicate unharmed by the scribble" (String.make 60 'd') second
  | l -> Alcotest.failf "%d deliveries" (List.length l)

let test_adversary_replay_survives_scribble () =
  let rng = Cio_util.Rng.create 5L in
  let adv = Adversary.create ~rng { Adversary.benign with Adversary.replay = 1.0 } in
  let e, link, got = scribbling_link ~tamper:(Adversary.tamper adv) () in
  (* Each send delivers the frame and, 2 us later, a replay from memory;
     the receiver has scribbled over every earlier delivery by then. *)
  List.iter
    (fun c ->
      Link.send link ~src:Link.A (Bytes.make 60 c);
      Engine.run e)
    [ 'r'; 's'; 't' ];
  Alcotest.(check int) "three frames, three replays" 6 (List.length !got);
  Alcotest.(check int) "replays counted" 3 (Adversary.stats adv).Adversary.replayed;
  List.iter
    (fun (_, _, contents) ->
      Alcotest.(check bool) "every delivery reads a sent frame" true
        (List.mem contents (List.map (String.make 60) [ 'r'; 's'; 't' ])))
    !got

let suite =
  [
    Alcotest.test_case "engine: time ordering" `Quick test_engine_time_ordering;
    Alcotest.test_case "engine: FIFO ties" `Quick test_engine_fifo_ties;
    Alcotest.test_case "engine: horizon and resume" `Quick test_engine_horizon;
    Alcotest.test_case "engine: nested scheduling" `Quick test_engine_nested_scheduling;
    Alcotest.test_case "engine: rejects past" `Quick test_engine_rejects_past;
    Alcotest.test_case "engine: stop" `Quick test_engine_stop;
    Alcotest.test_case "link: latency + serialization" `Quick test_link_latency;
    Alcotest.test_case "link: FIFO under load" `Quick test_link_fifo_serialization;
    Alcotest.test_case "link: counters" `Quick test_link_counters;
    Alcotest.test_case "link: tamper drop" `Quick test_link_tamper_drop;
    Alcotest.test_case "link: tamper duplicate" `Quick test_link_tamper_duplicate;
    Alcotest.test_case "link: transit tap" `Quick test_link_transit_tap;
    Alcotest.test_case "link: untampered frame delivered once, handed over" `Quick
      test_link_untampered_delivers_once;
    Alcotest.test_case "adversary: duplicate is a distinct buffer" `Quick
      test_adversary_duplicate_is_a_copy;
    Alcotest.test_case "adversary: replay survives a receiver scribble" `Quick
      test_adversary_replay_survives_scribble;
    Alcotest.test_case "adversary: benign passthrough" `Quick test_adversary_benign_passthrough;
    Alcotest.test_case "adversary: determinism" `Quick test_adversary_deterministic;
    Alcotest.test_case "adversary: drop rate" `Quick test_adversary_drop_rate;
    Alcotest.test_case "adversary: reorder semantics" `Quick test_adversary_reorder_holds_frame;
  ]

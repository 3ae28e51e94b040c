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
  let link = Link.create ~latency_ns:10_000L ~gbps:10.0 e in
  Link.attach link Link.B ignore;
  Link.send link ~src:Link.A (Bytes.make 10 'x');
  Link.send link ~src:Link.A (Bytes.make 20 'x');
  Alcotest.(check int) "frames" 2 (Link.frames_sent link ~src:Link.A);
  Alcotest.(check int) "bytes" 30 (Link.bytes_sent link ~src:Link.A);
  Alcotest.(check int) "other direction untouched" 0 (Link.frames_sent link ~src:Link.B)

let test_link_tamper_drop () =
  let e = Engine.create () in
  let link = Link.create ~latency_ns:10_000L ~gbps:10.0 e in
  let got = ref 0 in
  Link.attach link Link.B (fun _ -> incr got);
  Link.set_tamper link ~src:Link.A (Some (fun _ -> []));
  Link.send link ~src:Link.A (Bytes.make 10 'x');
  Engine.run e;
  Alcotest.(check int) "dropped" 0 !got

let test_link_tamper_duplicate () =
  let e = Engine.create () in
  let link = Link.create ~latency_ns:10_000L ~gbps:10.0 e in
  let got = ref 0 in
  Link.attach link Link.B (fun _ -> incr got);
  Link.set_tamper link ~src:Link.A
    (Some (fun f -> [ { Link.extra_delay_ns = 0L; frame = f }; { Link.extra_delay_ns = 10L; frame = f } ]));
  Link.send link ~src:Link.A (Bytes.make 10 'x');
  Engine.run e;
  Alcotest.(check int) "duplicated" 2 !got

let test_link_transit_tap () =
  let e = Engine.create () in
  let link = Link.create ~latency_ns:10_000L ~gbps:10.0 e in
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

(* --- differential oracle: the engine and link before event slots ------- *)

module O = Netsim_oracle

module type ENGINE = sig
  type t

  val create : unit -> t
  val now : t -> int64
  val schedule_at : t -> time:int64 -> (unit -> unit) -> unit
  val schedule : t -> after:int64 -> (unit -> unit) -> unit
  val pending : t -> int
  val step : t -> bool
  val run : ?until:int64 -> t -> unit
  val advance : t -> by:int64 -> unit
  val stop : t -> unit
end

(* An event of a generated schedule: firing logs its id and the clock,
   stops the run when [stops], and schedules each child [delay] ns on. *)
type ev = { id : int; delay : int; stops : bool; children : ev list }

type cmd =
  | Sched of int * ev  (* at the clock plus this offset; a negative one is in the past *)
  | Run
  | Run_until of int  (* the clock plus this *)
  | Advance of int
  | Step

let rec show_ev e =
  Printf.sprintf "%d(+%d%s)[%s]" e.id e.delay (if e.stops then " stop" else "")
    (String.concat " " (List.map show_ev e.children))

let show_cmd = function
  | Sched (off, e) -> Printf.sprintf "sched %+d %s" off (show_ev e)
  | Run -> "run"
  | Run_until d -> Printf.sprintf "run-until %+d" d
  | Advance d -> Printf.sprintf "advance %d" d
  | Step -> "step"

(* Everything observable: each firing with its clock, each refusal, each
   [step] result, and the clock and agenda size after every command. *)
let engine_trace (module E : ENGINE) cmds =
  let e = E.create () in
  let log = ref [] in
  let note s = log := s :: !log in
  let rec fire ev () =
    note (Printf.sprintf "fire %d at %Ld" ev.id (E.now e));
    if ev.stops then E.stop e;
    List.iter (fun c -> E.schedule e ~after:(Int64.of_int c.delay) (fire c)) ev.children
  in
  List.iter
    (fun cmd ->
      (match cmd with
      | Sched (off, ev) -> (
          try E.schedule_at e ~time:(Int64.add (E.now e) (Int64.of_int off)) (fire ev)
          with Invalid_argument m -> note m)
      | Run -> E.run e
      | Run_until d -> E.run ~until:(Int64.add (E.now e) (Int64.of_int d)) e
      | Advance d -> E.advance e ~by:(Int64.of_int d)
      | Step -> note (Printf.sprintf "step %b" (E.step e)));
      note (Printf.sprintf "now %Ld pending %d" (E.now e) (E.pending e)))
    cmds;
  List.rev !log

(* Small delays and offsets, 0 above all, so that equal-time ties are
   common. *)
let gen_cmds =
  let open QCheck.Gen in
  let time = oneof [ return 0; int_bound 5; int_bound 3000 ] in
  let ev =
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           map3
             (fun delay stops children -> { id = 0; delay; stops; children })
             time
             (map (fun k -> k = 0) (int_bound 9))
             (if n = 0 then return [] else list_size (int_bound 3) (self (n - 1))))
  in
  let cmd =
    frequency
      [
        (5, map2 (fun off ev -> Sched (off, ev)) (oneof [ time; int_range (-3) (-1) ]) ev);
        (1, return Run);
        (2, map (fun d -> Run_until d) (int_range (-10) 2000));
        (2, map (fun d -> Advance d) (int_bound 2000));
        (1, return Step);
      ]
  in
  (* Number the events in generation order, so a log names each one. *)
  let next = ref 0 in
  let rec number e =
    incr next;
    let id = !next in
    { e with id; children = List.map number e.children }
  in
  map
    (fun cmds ->
      next := 0;
      List.map (function Sched (off, e) -> Sched (off, number e) | c -> c) cmds)
    (list_size (int_range 1 30) cmd)

let prop_engine_matches_oracle =
  QCheck.Test.make ~name:"engine: slot-reusing agenda == closure-per-event oracle" ~count:500
    (QCheck.make ~print:(fun cmds -> String.concat "; " (List.map show_cmd cmds)) gen_cmds)
    (fun cmds ->
      engine_trace (module Engine) cmds = engine_trace (module O.Engine) cmds)

module type NET = sig
  module Engine : ENGINE

  module Link : sig
    type t

    val create : latency_ns:int64 -> gbps:float -> Engine.t -> t
    val attach : t -> Link.endpoint -> (bytes -> unit) -> unit
    val set_tamper : t -> src:Link.endpoint -> Link.tamper option -> unit
    val set_transit_tap : t -> (time:int64 -> src:Link.endpoint -> bytes -> unit) option -> unit
    val send : t -> src:Link.endpoint -> bytes -> unit
  end
end

(* What a tamper script does to one frame: extra delays in ns, which may
   reorder it behind later frames or, when negative, ahead of earlier
   ones, or past the present, which the engine refuses. *)
type verdict = Pass | Drop | Dup of int * int | Delay of int

type link_cmd =
  | Send of Link.endpoint * int  (* frame size *)
  | Wait of int  (* [advance] *)
  | Script of Link.endpoint * verdict list  (* [] removes the hook *)

let show_verdict = function
  | Pass -> "pass"
  | Drop -> "drop"
  | Dup (a, b) -> Printf.sprintf "dup(%d,%d)" a b
  | Delay d -> Printf.sprintf "delay(%d)" d

let show_link_cmd = function
  | Send (src, n) -> Printf.sprintf "send %s %d" (Link.endpoint_name src) n
  | Wait d -> Printf.sprintf "wait %d" d
  | Script (src, vs) ->
      Printf.sprintf "script %s [%s]" (Link.endpoint_name src)
        (String.concat " " (List.map show_verdict vs))

(* A hook playing [verdicts] in a loop, one per frame; a frame delivered
   twice is delivered once as a copy, marked so that the log tells the
   two apart. *)
let scripted verdicts =
  let vs = Array.of_list verdicts and i = ref 0 in
  fun f ->
    let v = vs.(!i mod Array.length vs) in
    incr i;
    let d extra frame = { Link.extra_delay_ns = Int64.of_int extra; frame } in
    match v with
    | Pass -> [ d 0 f ]
    | Drop -> []
    | Dup (a, b) ->
        let copy = Bytes.copy f in
        Bytes.set copy 0 '~';
        [ d a f; d b copy ]
    | Delay x -> [ d x f ]

(* Every delivery and tap call with its clock and bytes, every refusal,
   and the clock after each command; B echoes every frame back, so
   sends also happen inside deliveries. The script ends with a full
   [run]. *)
let link_trace (module N : NET) ~echo cmds =
  let e = N.Engine.create () in
  let link = N.Link.create ~latency_ns:1000L ~gbps:8.0 e in
  let log = ref [] in
  let note s = log := s :: !log in
  let sent = ref 0 in
  let send src n =
    incr sent;
    let f = Bytes.make n 'x' and tag = string_of_int !sent in
    Bytes.blit_string tag 0 f 0 (String.length tag);
    try N.Link.send link ~src f with Invalid_argument m -> note m
  in
  let receiver ep f =
    note
      (Printf.sprintf "%s got %s at %Ld" (Link.endpoint_name ep) (Bytes.to_string f)
         (N.Engine.now e));
    if echo && ep = Link.B then send Link.B (Bytes.length f)
  in
  N.Link.attach link Link.A (receiver Link.A);
  N.Link.attach link Link.B (receiver Link.B);
  N.Link.set_transit_tap link
    (Some
       (fun ~time ~src f ->
         note (Printf.sprintf "tap %s %d at %Ld" (Link.endpoint_name src) (Bytes.length f) time)));
  List.iter
    (fun cmd ->
      (match cmd with
      | Send (src, n) -> send src n
      | Wait d -> N.Engine.advance e ~by:(Int64.of_int d)
      | Script (src, []) -> N.Link.set_tamper link ~src None
      | Script (src, vs) -> N.Link.set_tamper link ~src (Some (scripted vs)));
      note (Printf.sprintf "now %Ld" (N.Engine.now e)))
    cmds;
  N.Engine.run e;
  note (Printf.sprintf "end %Ld pending %d" (N.Engine.now e) (N.Engine.pending e));
  List.rev !log

(* Sizes, waits and delays are multiples of 100 ns (one byte takes 1 ns
   at 8 Gbit/s), so distinct frames often arrive at the same instant
   and their order rests on the tie rule. *)
let gen_link_script =
  let open QCheck.Gen in
  let ep = oneofl [ Link.A; Link.B ] in
  let ns lo hi = map (fun k -> 100 * k) (int_range lo hi) in
  let verdict =
    frequency
      [
        (4, return Pass);
        (1, return Drop);
        (1, map2 (fun a b -> Dup (a, b)) (ns 0 30) (ns 0 30));
        (2, map (fun d -> Delay d) (ns (-25) 200));
      ]
  in
  let cmd =
    frequency
      [
        (6, map2 (fun src n -> Send (src, n)) ep (ns 1 15));
        (3, map (fun d -> Wait d) (ns 0 50));
        (1, map2 (fun src vs -> Script (src, vs)) ep (list_size (int_bound 4) verdict));
      ]
  in
  pair bool (list_size (int_range 1 40) cmd)

module New_net = struct
  module Engine = Engine
  module Link = Link
end

module Old_net = struct
  module Engine = O.Engine
  module Link = O.Link
end

let prop_link_matches_oracle =
  QCheck.Test.make ~name:"link: in-flight rings == closure-per-frame oracle" ~count:300
    (QCheck.make
       ~print:(fun (echo, cmds) ->
         Printf.sprintf "echo=%b: %s" echo (String.concat "; " (List.map show_link_cmd cmds)))
       gen_link_script)
    (fun (echo, cmds) ->
      link_trace (module New_net) ~echo cmds = link_trace (module Old_net) ~echo cmds)

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
    Helpers.qtest prop_engine_matches_oracle;
    Helpers.qtest prop_link_matches_oracle;
  ]

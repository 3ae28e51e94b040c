(* The repository benchmark.

     bench.exe --workload echo-64|echo-8k|store-8k --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics on the library's own units
   (Dual, Dual_store). --trace 1 runs the same workload on a unit
   assembled from the same public pieces with every layer call wrapped in
   a span, prints the per-layer table, and checks that assembly against
   the library's unit op for op. The last line of standard output is the
   result as one JSON object; the exit code is 1 when any output was
   wrong or a check failed. Run it through perfbench/run.py, which
   builds it first. *)

module Span = Perfbench.Span
module Stats = Perfbench.Stats
module Report = Perfbench.Report
module Metrics = Cio_telemetry.Metrics

type workload = Echo of int | Store of int

let workloads = [ ("echo-64", Echo 64); ("echo-8k", Echo 8192); ("store-8k", Store 8192) ]
let segments = 4
let setup_group = 3
let setup_reps = (segments + 1) * setup_group

(* Set-up ends with a warm-up of this many ops, about 0.1 s of work on
   each workload: the TCP window and the buffer pools are warm, and one
   set-up is long enough that timer and scheduler noise stay small
   beside it. *)
let warmup_ops = function Echo 64 -> 4000 | Echo _ -> 64 | Store _ -> 200

(* The reference kernel (about 65 us) runs once every this many
   completed ops, about every 5 ms on an idle core: roughly 1% of the
   time, all of it left out of the work clock. *)
let kernel_every = function Echo 64 -> 100 | Echo _ -> 2 | Store _ -> 8

(* cal_ops_per_s calibrates each slice of this many consecutive kernel
   runs (about 0.1 s) by their mean time, and scales the kernel to this
   reference time, about its time on an idle core of a 2-vCPU Xeon VM, so
   that the figure reads close to plain ops per second (see
   Stats.calibrated_rate). *)
let kernel_group = 20
let reference_ns = 60_000.

let layer_names =
  [
    "tls.seal";
    "tls.open";
    "peer";
    "channel.io_pump";
    "tcpip.stack";
    "cionet.driver_tx";
    "cionet.driver_rx";
    "cionet.host_model";
    "netsim.engine";
    "crypto.aead";
    "storage.file";
  ]

(* Set up a workload (handshake or initial files, then the warm-up) and
   return the function that runs its windows. *)
let prepare_echo ~seed ~size sys =
  Echo.handshake sys;
  let payloads = Echo.payloads ~seed ~size in
  let every = kernel_every (Echo size) in
  let w = Echo.run sys ~payloads ~every ~stop:(Window.Ops (warmup_ops (Echo size))) in
  if w.Window.failed > 0 then failwith "echo: warm-up failed";
  fun stop -> Echo.run sys ~payloads ~every ~stop

let prepare_store ~seed ~size sys =
  let contents = Store.contents ~seed ~size in
  Store.populate sys contents;
  let every = kernel_every (Store size) in
  let w = Store.run sys ~contents ~every ~stop:(Window.Ops (warmup_ops (Store size))) in
  if w.Window.failed > 0 then failwith "store: warm-up failed";
  fun stop -> Store.run sys ~contents ~every ~stop

let prepare ~seed = function
  | Echo size -> prepare_echo ~seed ~size (Echo.dual ~seed)
  | Store size -> prepare_store ~seed ~size (Store.dual ~seed)

(* Library counters are process-global and cumulative: only their
   deltas across one window are ever reported. *)
let global name = Metrics.counter_value (Metrics.counter Metrics.default name)

let ring_rejects () =
  global "ring.len_clamped" + global "ring.index_masked" + global "ring.state_skipped"

let deadline ~ns ~min_ops = Window.Deadline { at_ns = Window.now_ns () + ns; min_ops }
let per_op (w : Window.t) x = float_of_int x /. float_of_int (max 1 w.completed)
let ops_per_s (w : Window.t) = float_of_int w.completed /. (float_of_int w.elapsed_ns /. 1e9)

let fail_reasons (w : Window.t) =
  List.iter (fun e -> Printf.eprintf "failure: %s\n" e) (List.rev w.errors)

type outcome = {
  window : Window.t;
  rejects : int;
  checks : (string * bool) list;
  metrics : Report.metric list;  (* the result's metrics *)
  extra : Report.metric list;  (* printed with their units, not part of the result *)
  notes : (string * string) list;
}

let end_to_end ~seed ~seconds workload =
  let setup_times = ref [] in
  let timed_setup () =
    Gc.full_major ();
    let t0 = Window.now_ns () in
    let run = prepare ~seed workload in
    setup_times := (float_of_int (Window.now_ns () - t0) /. 1e9) :: !setup_times;
    run
  in
  let setups n =
    for _ = 1 to n do
      let (_ : Window.stop -> Window.t) = timed_setup () in
      ()
    done
  in
  (* The window runs in [segments] parts with [setup_group] set-ups before,
     between and after them, so set-ups sample the whole run as the
     window's slices do; setup_s is their median. *)
  setups (setup_group - 1);
  let run = timed_setup () in
  let r0 = ring_rejects () in
  let parts =
    List.init segments (fun i ->
        if i > 0 then begin
          setups setup_group;
          Gc.full_major ()
        end;
        run (deadline ~ns:(seconds * 1_000_000_000 / segments) ~min_ops:Window.fixed_ops))
  in
  let rejects = ring_rejects () - r0 in
  setups setup_group;
  let w = Window.concat parts in
  let latencies = Stats.to_array w.latencies in
  let mark_ops = Stats.to_array w.mark_ops in
  let rate =
    Stats.calibrated_rate ~ops:mark_ops ~work_ns:(Stats.to_array w.mark_ns)
      ~kernel_ns:(Stats.to_array w.mark_kernel_ns) ~group:kernel_group ~reference_ns
  in
  let kernel_runs = Array.length mark_ops in
  let pct a p = if a = [||] then 0. else float_of_int (Stats.percentile (Stats.sorted a) p) /. 1e3 in
  let n = Array.length latencies in
  let heap_bytes = w.heap_top_words * (Sys.word_size / 8) in
  let fail_frac = float_of_int (w.failed + rejects) /. float_of_int (max 1 w.issued) in
  {
    window = w;
    rejects;
    checks = [ ("p99 has at least ten samples beyond it", Stats.beyond ~n 0.99 >= 10) ];
    metrics =
      [
        Report.metric "setup_s" "s" (Stats.median !setup_times);
        Report.metric "cal_ops_per_s" "1/s" rate;
        Report.metric "guest_cycles_per_op" "cycles"
          (float_of_int w.fixed_cycles /. float_of_int (min w.completed Window.fixed_ops));
        Report.metric "minor_words_per_op" "words" (w.minor_words /. float_of_int (max 1 w.completed));
        Report.metric "heap_top_mib" "MiB" (float_of_int heap_bytes /. 1048576.);
      ];
    extra =
      [
        Report.metric "ops_per_s" "1/s" (ops_per_s w);
        Report.metric "op_wall_us_p50" "us" (pct latencies 0.50);
        Report.metric "op_wall_us_p99" "us" (pct latencies 0.99);
        Report.metric "fail_frac" "ratio" fail_frac;
        Report.metric "cionet.ring_rejects" "count" (float_of_int rejects);
      ];
    notes =
      [
        ("latency_samples", string_of_int n);
        ("p99_samples_beyond", string_of_int (Stats.beyond ~n 0.99));
        ("kernel_runs", string_of_int kernel_runs);
        ( "kernel_us_mean",
          Report.number (float_of_int w.kernel_ns /. float_of_int (max 1 kernel_runs) /. 1e3) );
        ("setup_reps", string_of_int setup_reps);
        ("setup_s_min", Report.number (List.fold_left Float.min Float.infinity !setup_times));
      ];
  }

(* A traced unit set up and ready, with its counters as (metric, unit,
   per-window value) once the window has run. *)
let traced_unit ~seed = function
  | Echo size ->
      let sys, probe, tracer = Echo.mirror ~seed ~layers:layer_names in
      let run = prepare_echo ~seed ~size sys in
      let frames0 = probe.frames () and fresh0 = probe.fresh_bufs () in
      let seg0 = probe.segments () and rtx0 = probe.retransmits () in
      let rec0 = probe.records () in
      probe.rx_polls := 0;
      probe.rx_hits := 0;
      probe.tx_backlog_max := 0;
      probe.host_pending_max := 0;
      let finish (w : Window.t) =
        [
          ("cionet.frames_per_op", "count", per_op w (probe.frames () - frames0));
          ( "cionet.rx_poll_hit_frac",
            "ratio",
            float_of_int !(probe.rx_hits) /. float_of_int (max 1 !(probe.rx_polls)) );
          ("bufpool.fresh_per_op", "count", per_op w (probe.fresh_bufs () - fresh0));
          ("tcpip.segments_per_op", "count", per_op w (probe.segments () - seg0));
          ("tcpip.retransmits_per_op", "count", per_op w (probe.retransmits () - rtx0));
          ("tcpip.tx_backlog_max", "frames", float_of_int !(probe.tx_backlog_max));
          ("cionet.host_pending_rx_max", "frames", float_of_int !(probe.host_pending_max));
          ("tls.records_per_op", "count", per_op w (probe.records () - rec0));
        ]
      in
      (run, tracer, finish)
  | Store size ->
      let sys, tracer = Store.mirror ~seed ~layers:layer_names in
      let run = prepare_store ~seed ~size sys in
      let zero name unit_ = (name, unit_, 0.) in
      let finish _ =
        [
          zero "cionet.frames_per_op" "count";
          zero "cionet.rx_poll_hit_frac" "ratio";
          zero "bufpool.fresh_per_op" "count";
          zero "tcpip.segments_per_op" "count";
          zero "tcpip.retransmits_per_op" "count";
          zero "tcpip.tx_backlog_max" "frames";
          zero "cionet.host_pending_rx_max" "frames";
          zero "tls.records_per_op" "count";
        ]
      in
      (run, tracer, finish)

let traced ~seed ~seconds workload =
  let run, tracer, finish = traced_unit ~seed workload in
  Gc.full_major ();
  Span.reset tracer;
  let r0 = ring_rejects () and x0 = global "l5.crossings" in
  let w = run (deadline ~ns:(seconds * 1_000_000_000) ~min_ops:(3 * Window.fixed_ops)) in
  let rejects = ring_rejects () - r0 and crossings = global "l5.crossings" - x0 in
  let counters = finish w in
  (* Replay the same seed on the library's own unit, untraced, for the
     same number of ops: the equivalence checks and the tracing overhead
     both come from it. *)
  let layers = Span.layers tracer in
  let attributed_ns = Span.total_self_ns tracer in
  let attributed_cycles = Span.total_self_cycles tracer in
  let wr = (prepare ~seed workload) (Window.Ops w.issued) in
  let checks =
    [
      ("replay completes the same ops", wr.completed = w.completed && wr.failed = w.failed);
      ("same guest cycles as the library unit", wr.cycles = w.cycles && wr.fixed_cycles = w.fixed_cycles);
      ("same ordered payloads as the library unit", Int32.equal wr.digest w.digest);
      ("same final simulated time as the library unit", Int64.equal wr.sim_end_ns w.sim_end_ns);
      ("layer sim cycles sum to the unit meter", attributed_cycles = w.cycles);
    ]
  in
  let layer_metrics =
    List.concat_map
      (fun (l : Span.layer) ->
        [
          Report.metric (l.name ^ ".self_ns_per_op") "ns" (per_op w l.self_ns);
          Report.metric (l.name ^ ".calls_per_op") "count" (per_op w l.calls);
          Report.metric (l.name ^ ".minor_words_per_op") "words" (per_op w l.self_words);
          Report.metric (l.name ^ ".sim_cycles_per_op") "cycles" (per_op w l.self_cycles);
        ])
      layers
  in
  let counter_metrics = List.map (fun (n, u, v) -> Report.metric n u v) counters in
  let global_metrics =
    [
      Report.metric "l5.crossings_per_op" "count" (per_op w crossings);
      Report.metric "trace.unattributed_frac" "ratio"
        (float_of_int (w.elapsed_ns - attributed_ns) /. float_of_int w.elapsed_ns);
      Report.metric "trace.overhead_frac" "ratio" (1. -. (ops_per_s w /. ops_per_s wr));
    ]
  in
  {
    window = w;
    rejects;
    checks;
    metrics = layer_metrics @ counter_metrics @ global_metrics;
    extra = [ Report.metric "cionet.ring_rejects" "count" (float_of_int rejects) ];
    notes =
      [
        ("traced_ops_per_s", Report.number (ops_per_s w));
        ("untraced_replay_ops_per_s", Report.number (ops_per_s wr));
      ];
  }

let usage () =
  prerr_endline
    "usage: bench.exe --workload echo-64|echo-8k|store-8k --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10 and trace = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := Int64.of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := Option.value ~default:(-1) (int_of_string_opt v);
        parse rest
    | "--trace" :: v :: rest ->
        trace := Option.value ~default:(-1) (int_of_string_opt v);
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let spec = match List.assoc_opt !workload workloads with Some s -> s | None -> usage () in
  let seed = match !seed with Some s -> s | None -> usage () in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let o =
    if !trace = 0 then end_to_end ~seed ~seconds:!seconds spec
    else traced ~seed ~seconds:!seconds spec
  in
  let w = o.window in
  let checks_ok = List.for_all snd o.checks in
  let failed = w.failed + o.rejects in
  let correct = failed = 0 && checks_ok in
  let gc = Gc.get () in
  Printf.printf "workload %s  seed %Ld  trace %d\n" !workload seed !trace;
  List.iter
    (fun (m : Report.metric) -> Printf.printf "  %-40s %16s %s\n" m.name (Report.number m.value) m.unit_)
    (o.metrics @ o.extra);
  List.iter (fun (k, v) -> Printf.printf "  %-40s %16s\n" k v) o.notes;
  List.iter (fun (c, ok) -> Printf.printf "  check: %-50s %s\n" c (if ok then "ok" else "FAILED")) o.checks;
  fail_reasons w;
  print_endline
    (Report.object_line
       [
         ( "env",
           Report.object_line
             [
               ("workload", Report.string !workload);
               ("seed", Int64.to_string seed);
               ("trace", string_of_int !trace);
               ("ocaml_version", Report.string Sys.ocaml_version);
               ("nproc", string_of_int (Domain.recommended_domain_count ()));
               ("gc_minor_heap_size_words", string_of_int gc.Gc.minor_heap_size);
               ("gc_space_overhead", string_of_int gc.Gc.space_overhead);
               ("dune_profile", Report.string Build_info.profile);
               ("run_seconds", string_of_int !seconds);
               ("window_s", Report.number (float_of_int w.elapsed_ns /. 1e9));
               ("ops", string_of_int w.completed);
             ] );
       ]);
  print_endline (Report.result_line ~correct ~attempted:(max 1 w.issued) ~failed o.metrics);
  if not correct then exit 1

(* What one timed window of a workload measured. An op is one echoed
   message or one file write or read. *)

type stop =
  | Deadline of { at_ns : int; min_ops : int }
      (** Stop issuing new ops once the clock passes [at_ns] and at least
          [min_ops] have completed; ops in flight still finish. *)
  | Ops of int  (** Issue exactly this many ops (warm-up and replays). *)

type t = {
  issued : int;
  completed : int;
  failed : int;
  errors : string list;  (* first few failure reasons, newest first *)
  elapsed_ns : int;  (* work time: wall time less [kernel_ns] *)
  latencies : Perfbench.Stats.samples;  (* per completed op, in completion order *)
  mark_ops : Perfbench.Stats.samples;  (* per kernel run: ops completed before it *)
  mark_ns : Perfbench.Stats.samples;  (* per kernel run: work ns before it *)
  mark_kernel_ns : Perfbench.Stats.samples;  (* per kernel run: kernel ns before it *)
  kernel_ns : int;  (* wall time in the reference kernel, left out of [elapsed_ns] *)
  cycles : int;  (* unit meter delta over the whole window *)
  fixed_cycles : int;  (* unit meter delta over the first [fixed_ops] completions *)
  heap_top_words : int;  (* major-heap peak when the [fixed_ops]-th op completed *)
  minor_words : float;
  digest : int32;  (* CRC-32 chained over every returned payload, in order *)
  sim_end_ns : int64;  (* simulated clock at the end (0 without a network) *)
}

(* guest_cycles_per_op and heap_top_mib are taken at a fixed op count, so
   that they repeat for a seed whatever the wall-clock speed of the
   machine: a faster build must not look bigger because it fit more ops
   into the window. *)
let fixed_ops = 1000

let heap_top_words () = (Gc.quick_stat ()).Gc.top_heap_words

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A window's work clock. Every [every] completed ops the reference
   kernel runs once (see Kernel); the clock leaves its wall time out, and
   the window leaves its allocations out of [minor_words]. The cadence is
   a count of ops rather than of time so that a seed allocates the same
   sequence whatever the speed of the machine. *)
type clock = {
  every : int;
  t0 : int;
  mutable in_kernel_ns : int;
  mutable in_kernel_words : int;
  marks : Perfbench.Stats.samples * Perfbench.Stats.samples * Perfbench.Stats.samples;
}

let start ~every =
  let module S = Perfbench.Stats in
  {
    every;
    t0 = now_ns ();
    in_kernel_ns = 0;
    in_kernel_words = 0;
    marks = (S.samples (), S.samples (), S.samples ());
  }

let elapsed c = now_ns () - c.t0 - c.in_kernel_ns

let tick c ~completed =
  if completed mod c.every = 0 then begin
    let ops, ns, kernel = c.marks in
    let w0 = Gc.minor_words () and t0 = now_ns () in
    Perfbench.Stats.add ops completed;
    Perfbench.Stats.add ns (t0 - c.t0 - c.in_kernel_ns);
    Perfbench.Stats.add kernel c.in_kernel_ns;
    Perfbench.Kernel.run ();
    c.in_kernel_ns <- c.in_kernel_ns + (now_ns () - t0);
    c.in_kernel_words <- c.in_kernel_words + int_of_float (Gc.minor_words () -. w0)
  end

(* The window [clock] timed, once its last op has completed. [w0] is
   [Gc.minor_words] when the window opened. *)
let finish c ~w0 ~issued ~completed ~failed ~errors ~latencies ~cycles ~fixed_cycles
    ~heap_top_words ~digest ~sim_end_ns =
  let mark_ops, mark_ns, mark_kernel_ns = c.marks in
  {
    issued;
    completed;
    failed;
    errors;
    elapsed_ns = elapsed c;
    latencies;
    mark_ops;
    mark_ns;
    mark_kernel_ns;
    kernel_ns = c.in_kernel_ns;
    cycles;
    fixed_cycles;
    heap_top_words;
    minor_words = Gc.minor_words () -. w0 -. float_of_int c.in_kernel_words;
    digest;
    sim_end_ns;
  }

let may_issue stop ~issued ~completed =
  match stop with
  | Ops n -> issued < n
  | Deadline { at_ns; min_ops } -> completed < min_ops || now_ns () < at_ns

let note_error errors e = if List.length !errors < 4 then errors := e :: !errors

(* Windows run back to back on one unit, joined as one: the kernel marks
   stay a single timeline that leaves out the time between them. The
   fixed-count figures come from the first window. *)
let concat = function
  | [] -> invalid_arg "Window.concat: no windows"
  | first :: _ as ws ->
      let module S = Perfbench.Stats in
      let latencies = S.samples () and offset = ref 0 in
      let mark_ops = S.samples () and mark_ns = S.samples () and mark_kernel_ns = S.samples () in
      let ops = ref 0 and kernel = ref 0 in
      let shift into by from = Array.iter (fun v -> S.add into (v + by)) (S.to_array from) in
      List.iter
        (fun w ->
          shift mark_ops !ops w.mark_ops;
          shift mark_ns !offset w.mark_ns;
          shift mark_kernel_ns !kernel w.mark_kernel_ns;
          Array.iter (S.add latencies) (S.to_array w.latencies);
          offset := !offset + w.elapsed_ns;
          ops := !ops + w.completed;
          kernel := !kernel + w.kernel_ns)
        ws;
      let sum f = List.fold_left (fun acc w -> acc + f w) 0 ws in
      let last = List.nth ws (List.length ws - 1) in
      {
        first with
        issued = sum (fun w -> w.issued);
        completed = sum (fun w -> w.completed);
        failed = sum (fun w -> w.failed);
        errors = List.concat_map (fun w -> w.errors) ws;
        elapsed_ns = !offset;
        latencies;
        mark_ops;
        mark_ns;
        mark_kernel_ns;
        kernel_ns = !kernel;
        cycles = sum (fun w -> w.cycles);
        minor_words = List.fold_left (fun acc w -> acc +. w.minor_words) 0. ws;
        digest = last.digest;
        sim_end_ns = last.sim_end_ns;
      }

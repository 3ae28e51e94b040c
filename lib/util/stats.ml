(* Streaming and batch statistics used by the benchmark harness. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let percentile_of_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let percentile samples p =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  percentile_of_sorted sorted p

let mean samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 samples /. float_of_int n

let stddev samples =
  let n = Array.length samples in
  if n < 2 then 0.0
  else begin
    let m = mean samples in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 samples in
    sqrt (ss /. float_of_int (n - 1))
  end

let summarize samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.summarize: empty";
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  {
    count = n;
    mean = mean samples;
    stddev = stddev samples;
    min = sorted.(0);
    max = sorted.(n - 1);
    p50 = percentile_of_sorted sorted 50.0;
    p90 = percentile_of_sorted sorted 90.0;
    p99 = percentile_of_sorted sorted 99.0;
  }

(* Welford's online algorithm: lets long simulations accumulate statistics
   without retaining every sample. *)
type online = {
  mutable n : int;
  mutable m : float;
  mutable m2 : float;
}

let online () = { n = 0; m = 0.0; m2 = 0.0 }

let add o x =
  o.n <- o.n + 1;
  let delta = x -. o.m in
  o.m <- o.m +. (delta /. float_of_int o.n);
  o.m2 <- o.m2 +. (delta *. (x -. o.m))

let online_count o = o.n
let online_mean o = if o.n = 0 then 0.0 else o.m

let online_stddev o =
  if o.n < 2 then 0.0 else sqrt (o.m2 /. float_of_int (o.n - 1))

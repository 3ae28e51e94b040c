type samples = { mutable data : int array; mutable len : int }

let samples () = { data = Array.make 65536 0; len = 0 }

let add s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let rank ~n p = max 1 (int_of_float (Float.ceil (p *. float_of_int n -. 1e-9)))

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(min n (rank ~n p) - 1)

let beyond ~n p = n - min n (rank ~n p)

let calibrated_rate ~ops ~work_ns ~kernel_ns ~group ~reference_ns =
  let slices = (Array.length ops - 1) / group in
  let total_ops = ref 0 and cal_ns = ref 0. in
  for j = 0 to slices - 1 do
    let s = j * group and e = (j + 1) * group in
    let kernel_mean = float_of_int (kernel_ns.(e) - kernel_ns.(s)) /. float_of_int group in
    total_ops := !total_ops + (ops.(e) - ops.(s));
    cal_ns := !cal_ns +. (float_of_int (work_ns.(e) - work_ns.(s)) *. reference_ns /. kernel_mean)
  done;
  if !total_ops = 0 then 0. else float_of_int !total_ops /. (!cal_ns /. 1e9)

let median = function
  | [] -> invalid_arg "Stats.median: empty"
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

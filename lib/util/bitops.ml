(* Bit-level helpers shared by the ring-buffer and memory layers.

   The paper's safe-interface principles require power-of-two sizing so
   that index and pointer confinement can be a single AND ([mask]) instead
   of a branchy bounds check; these helpers centralise that arithmetic. *)

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* Top-level loops, so that no call builds a closure. *)
let rec power_at_least n p = if p >= n then p else power_at_least n (p * 2)

let next_power_of_two n = if n <= 1 then 1 else power_at_least n 2

let mask_of_size n =
  if not (is_power_of_two n) then
    invalid_arg "Bitops.mask_of_size: size must be a power of two";
  n - 1

let align_up n ~align =
  if not (is_power_of_two align) then
    invalid_arg "Bitops.align_up: alignment must be a power of two";
  (n + align - 1) land lnot (align - 1)

let align_down n ~align =
  if not (is_power_of_two align) then
    invalid_arg "Bitops.align_down: alignment must be a power of two";
  n land lnot (align - 1)

let is_aligned n ~align =
  if not (is_power_of_two align) then
    invalid_arg "Bitops.is_aligned: alignment must be a power of two";
  n land (align - 1) = 0

let rec log2_from acc n = if n = 1 then acc else log2_from (acc + 1) (n lsr 1)

let log2 n =
  if not (is_power_of_two n) then invalid_arg "Bitops.log2: not a power of two";
  log2_from 0 n

let popcount n =
  let rec go acc n = if n = 0 then acc else go (acc + (n land 1)) (n lsr 1) in
  go 0 n

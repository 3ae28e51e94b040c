(* RFC 1071 Internet checksum, shared by IPv4 and TCP. *)

(* The bulk is added four big-endian 32-bit words per step. A 32-bit word
   is two 16-bit words times 2^16 and 1, and 2^16 = 1 mod 0xFFFF, so the
   end-around-carry fold below (RFC 1071 §2(B)) gives the same result as
   adding the 16-bit words one by one. The native int has room for the
   carries of far more than any frame's words. *)
let[@inline] word b i = Int32.to_int (Bytes.get_int32_be b i) land 0xFFFFFFFF

let ones_complement_sum b ~pos ~len ~init =
  let sum = ref init in
  let i = ref pos in
  let stop = pos + len in
  while !i + 15 < stop do
    sum := !sum + word b !i + word b (!i + 4) + word b (!i + 8) + word b (!i + 12);
    i := !i + 16
  done;
  while !i + 1 < stop do
    sum := !sum + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code (Bytes.get b !i) lsl 8);
  (* Fold carries. *)
  let s = ref !sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  !s

let finish sum = lnot sum land 0xFFFF

let compute b ~pos ~len = finish (ones_complement_sum b ~pos ~len ~init:0)

let verify b ~pos ~len = ones_complement_sum b ~pos ~len ~init:0 = 0xFFFF

(* The IPv4 pseudo-header's folded sum, as [ones_complement_sum] over its
   twelve bytes (source, destination, zero, protocol, length) would give,
   without building them: two 16-bit words from each address, then the
   zero/protocol word and the 16-bit length. *)
let pseudo_sum ~src ~dst ~proto ~length =
  let src = src land 0xFFFFFFFF and dst = dst land 0xFFFFFFFF in
  let s = (src lsr 16) + (src land 0xFFFF) + (dst lsr 16) + (dst land 0xFFFF) in
  let s = ref (s + (proto land 0xFF) + (length land 0xFFFF)) in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  !s

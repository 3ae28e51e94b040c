(* A frozen copy of the library's ChaCha20 block function (RFC 8439 §2.3),
   boxed Int32 state and all, kept here so that no change to the library
   ever changes it. Its code mix (minor-heap allocation, write barriers,
   32-bit arithmetic) is the benchmark's own, so whatever slows the core
   for the program (a busy sibling hyperthread, a neighbour thrashing the
   shared caches) slows this kernel in about the same proportion. *)

let rotl x n = Int32.logor (Int32.shift_left x n) (Int32.shift_right_logical x (32 - n))

let quarter_round st a b c d =
  st.(a) <- Int32.add st.(a) st.(b);
  st.(d) <- rotl (Int32.logxor st.(d) st.(a)) 16;
  st.(c) <- Int32.add st.(c) st.(d);
  st.(b) <- rotl (Int32.logxor st.(b) st.(c)) 12;
  st.(a) <- Int32.add st.(a) st.(b);
  st.(d) <- rotl (Int32.logxor st.(d) st.(a)) 8;
  st.(c) <- Int32.add st.(c) st.(d);
  st.(b) <- rotl (Int32.logxor st.(b) st.(c)) 7

let block ~key ~nonce ~counter =
  let st = Array.make 16 0l in
  st.(0) <- 0x61707865l;
  st.(1) <- 0x3320646el;
  st.(2) <- 0x79622d32l;
  st.(3) <- 0x6b206574l;
  for i = 0 to 7 do
    st.(4 + i) <- Bytes.get_int32_le key (4 * i)
  done;
  st.(12) <- counter;
  for i = 0 to 2 do
    st.(13 + i) <- Bytes.get_int32_le nonce (4 * i)
  done;
  let work = Array.copy st in
  for _ = 1 to 10 do
    quarter_round work 0 4 8 12;
    quarter_round work 1 5 9 13;
    quarter_round work 2 6 10 14;
    quarter_round work 3 7 11 15;
    quarter_round work 0 5 10 15;
    quarter_round work 1 6 11 12;
    quarter_round work 2 7 8 13;
    quarter_round work 3 4 9 14
  done;
  let out = Bytes.create 64 in
  for i = 0 to 15 do
    Bytes.set_int32_le out (4 * i) (Int32.add work.(i) st.(i))
  done;
  out

let key = Bytes.init 32 Char.chr
let nonce = Bytes.make 12 '\000'
let blocks = 16

let run () =
  for i = 1 to blocks do
    ignore (Sys.opaque_identity (block ~key ~nonce ~counter:(Int32.of_int i)))
  done

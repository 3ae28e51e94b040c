(* ChaCha20 stream cipher (RFC 8439 §2). Verified against the RFC vectors
   in the test suite.

   The sixteen state words are [int32] values in local refs, which
   ocamlopt keeps unboxed in registers: the rounds allocate nothing and
   wrap mod 2^32 natively. (Native ints masked to 32 bits are
   allocation-free too, but every tagged shift costs extra instructions;
   they measured about half the speed per block.) The block function's
   feed-forward XORs each keystream word straight into the destination,
   so a full block never passes through a keystream buffer. The
   keystream alone is the XOR of a shared zero block, which is only ever
   read; a last partial block goes through a 64-byte keystream buffer
   owned by the call, 4 bytes at a time and bytewise only for the last
   0-3. There is no mutable shared state, so the cipher is reentrant. *)

let[@inline] ( +% ) a b = Int32.add a b
let[@inline] ( ^% ) a b = Int32.logxor a b
let[@inline] rotl x n = Int32.logor (Int32.shift_left x n) (Int32.shift_right_logical x (32 - n))
let[@inline] get32 b off = Bytes.get_int32_le b off
let[@inline] set32 b off v = Bytes.set_int32_le b off v

let check ~key ~nonce =
  if Bytes.length key <> 32 then invalid_arg "Chacha20: key must be 32 bytes";
  if Bytes.length nonce <> 12 then invalid_arg "Chacha20: nonce must be 12 bytes"

(* One block: the 64 bytes of [src] at [s] XORed with the keystream block
   for [counter] (an int, taken mod 2^32, so that no boxed [int32] crosses
   the call), written to [dst] at [d]. Each word is read before it is
   written, so [src] and [dst] may be the same bytes. *)
let xor_block ~key ~nonce ~counter src s dst d =
  let x0 = ref 0x61707865l and x1 = ref 0x3320646el and x2 = ref 0x79622d32l in
  let x3 = ref 0x6b206574l and x4 = ref (get32 key 0) and x5 = ref (get32 key 4) in
  let x6 = ref (get32 key 8) and x7 = ref (get32 key 12) and x8 = ref (get32 key 16) in
  let x9 = ref (get32 key 20) and x10 = ref (get32 key 24) and x11 = ref (get32 key 28) in
  let x12 = ref (Int32.of_int counter) and x13 = ref (get32 nonce 0) in
  let x14 = ref (get32 nonce 4) and x15 = ref (get32 nonce 8) in
  for _ = 1 to 10 do
    (* Column round. *)
    x0 := !x0 +% !x4; x12 := rotl (!x12 ^% !x0) 16; x8 := !x8 +% !x12; x4 := rotl (!x4 ^% !x8) 12;
    x0 := !x0 +% !x4; x12 := rotl (!x12 ^% !x0) 8; x8 := !x8 +% !x12; x4 := rotl (!x4 ^% !x8) 7;
    x1 := !x1 +% !x5; x13 := rotl (!x13 ^% !x1) 16; x9 := !x9 +% !x13; x5 := rotl (!x5 ^% !x9) 12;
    x1 := !x1 +% !x5; x13 := rotl (!x13 ^% !x1) 8; x9 := !x9 +% !x13; x5 := rotl (!x5 ^% !x9) 7;
    x2 := !x2 +% !x6; x14 := rotl (!x14 ^% !x2) 16; x10 := !x10 +% !x14; x6 := rotl (!x6 ^% !x10) 12;
    x2 := !x2 +% !x6; x14 := rotl (!x14 ^% !x2) 8; x10 := !x10 +% !x14; x6 := rotl (!x6 ^% !x10) 7;
    x3 := !x3 +% !x7; x15 := rotl (!x15 ^% !x3) 16; x11 := !x11 +% !x15; x7 := rotl (!x7 ^% !x11) 12;
    x3 := !x3 +% !x7; x15 := rotl (!x15 ^% !x3) 8; x11 := !x11 +% !x15; x7 := rotl (!x7 ^% !x11) 7;
    (* Diagonal round. *)
    x0 := !x0 +% !x5; x15 := rotl (!x15 ^% !x0) 16; x10 := !x10 +% !x15; x5 := rotl (!x5 ^% !x10) 12;
    x0 := !x0 +% !x5; x15 := rotl (!x15 ^% !x0) 8; x10 := !x10 +% !x15; x5 := rotl (!x5 ^% !x10) 7;
    x1 := !x1 +% !x6; x12 := rotl (!x12 ^% !x1) 16; x11 := !x11 +% !x12; x6 := rotl (!x6 ^% !x11) 12;
    x1 := !x1 +% !x6; x12 := rotl (!x12 ^% !x1) 8; x11 := !x11 +% !x12; x6 := rotl (!x6 ^% !x11) 7;
    x2 := !x2 +% !x7; x13 := rotl (!x13 ^% !x2) 16; x8 := !x8 +% !x13; x7 := rotl (!x7 ^% !x8) 12;
    x2 := !x2 +% !x7; x13 := rotl (!x13 ^% !x2) 8; x8 := !x8 +% !x13; x7 := rotl (!x7 ^% !x8) 7;
    x3 := !x3 +% !x4; x14 := rotl (!x14 ^% !x3) 16; x9 := !x9 +% !x14; x4 := rotl (!x4 ^% !x9) 12;
    x3 := !x3 +% !x4; x14 := rotl (!x14 ^% !x3) 8; x9 := !x9 +% !x14; x4 := rotl (!x4 ^% !x9) 7
  done;
  (* Feed-forward: add the input state back in, then XOR into [dst]. *)
  set32 dst (d + 0) (get32 src (s + 0) ^% (!x0 +% 0x61707865l));
  set32 dst (d + 4) (get32 src (s + 4) ^% (!x1 +% 0x3320646el));
  set32 dst (d + 8) (get32 src (s + 8) ^% (!x2 +% 0x79622d32l));
  set32 dst (d + 12) (get32 src (s + 12) ^% (!x3 +% 0x6b206574l));
  set32 dst (d + 16) (get32 src (s + 16) ^% (!x4 +% get32 key 0));
  set32 dst (d + 20) (get32 src (s + 20) ^% (!x5 +% get32 key 4));
  set32 dst (d + 24) (get32 src (s + 24) ^% (!x6 +% get32 key 8));
  set32 dst (d + 28) (get32 src (s + 28) ^% (!x7 +% get32 key 12));
  set32 dst (d + 32) (get32 src (s + 32) ^% (!x8 +% get32 key 16));
  set32 dst (d + 36) (get32 src (s + 36) ^% (!x9 +% get32 key 20));
  set32 dst (d + 40) (get32 src (s + 40) ^% (!x10 +% get32 key 24));
  set32 dst (d + 44) (get32 src (s + 44) ^% (!x11 +% get32 key 28));
  set32 dst (d + 48) (get32 src (s + 48) ^% (!x12 +% Int32.of_int counter));
  set32 dst (d + 52) (get32 src (s + 52) ^% (!x13 +% get32 nonce 0));
  set32 dst (d + 56) (get32 src (s + 56) ^% (!x14 +% get32 nonce 4));
  set32 dst (d + 60) (get32 src (s + 60) ^% (!x15 +% get32 nonce 8))

(* XORing this block yields the bare keystream. Never written. *)
let zero_block = Bytes.make 64 '\000'

let block ~key ~nonce ~counter =
  check ~key ~nonce;
  let ks = Bytes.create 64 in
  xor_block ~key ~nonce ~counter:(Int32.to_int counter) zero_block 0 ks 0;
  ks

let xor_into ~counter ~key ~nonce src ~src_off dst ~dst_off ~len =
  check ~key ~nonce;
  if len < 0 || src_off < 0 || src_off > Bytes.length src - len || dst_off < 0
     || dst_off > Bytes.length dst - len
  then invalid_arg "Chacha20.xor_into: range out of bounds";
  let counter = Int32.to_int counter in
  let full = len / 64 in
  for b = 0 to full - 1 do
    (* The block counter wraps mod 2^32, as Int32 arithmetic does. *)
    xor_block ~key ~nonce ~counter:(counter + b) src (src_off + (64 * b)) dst (dst_off + (64 * b))
  done;
  let tail = len - (64 * full) in
  if tail > 0 then begin
    let ks = Bytes.create 64 in
    xor_block ~key ~nonce ~counter:(counter + full) zero_block 0 ks 0;
    let s = src_off + (64 * full) and d = dst_off + (64 * full) in
    let words = tail / 4 in
    for i = 0 to words - 1 do
      set32 dst (d + (4 * i)) (get32 src (s + (4 * i)) ^% get32 ks (4 * i))
    done;
    for i = 4 * words to tail - 1 do
      Bytes.set_uint8 dst (d + i) (Bytes.get_uint8 src (s + i) lxor Bytes.get_uint8 ks i)
    done
  end

let encrypt ?(counter = 1l) ~key ~nonce data =
  let n = Bytes.length data in
  let out = Bytes.create n in
  xor_into ~counter ~key ~nonce data ~src_off:0 out ~dst_off:0 ~len:n;
  out

let decrypt = encrypt

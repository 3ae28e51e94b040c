(* SHA-256 (FIPS 180-4), pure OCaml over int32.

   Backs HMAC/HKDF in the L5 key schedule. Verified against the FIPS/RFC
   6234 test vectors in the test suite. *)

let k =
  [|
    0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl; 0x59f111f1l;
    0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l; 0x243185bel; 0x550c7dc3l;
    0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l; 0xc19bf174l; 0xe49b69c1l; 0xefbe4786l;
    0x0fc19dc6l; 0x240ca1ccl; 0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal;
    0x983e5152l; 0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
    0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl; 0x53380d13l;
    0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l; 0xa2bfe8a1l; 0xa81a664bl;
    0xc24b8b70l; 0xc76c51a3l; 0xd192e819l; 0xd6990624l; 0xf40e3585l; 0x106aa070l;
    0x19a4c116l; 0x1e376c08l; 0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al;
    0x5b9cca4fl; 0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
    0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l;
  |]

type t = {
  h : int32 array;           (* chaining state, 8 words *)
  block : bytes;             (* 64-byte input buffer *)
  mutable fill : int;        (* bytes currently buffered *)
  mutable total : int64;     (* total message bytes seen *)
}

let init () =
  {
    h =
      [|
        0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al;
        0x510e527fl; 0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l;
      |];
    block = Bytes.create 64;
    fill = 0;
    total = 0L;
  }

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))
let ( ^^ ) = Int32.logxor
let ( &&& ) = Int32.logand
let ( +% ) = Int32.add

let compress t block pos =
  let w = Array.make 64 0l in
  for i = 0 to 15 do
    w.(i) <- Bytes.get_int32_be block (pos + (4 * i))
  done;
  for i = 16 to 63 do
    let s0 = rotr w.(i - 15) 7 ^^ rotr w.(i - 15) 18 ^^ Int32.shift_right_logical w.(i - 15) 3 in
    let s1 = rotr w.(i - 2) 17 ^^ rotr w.(i - 2) 19 ^^ Int32.shift_right_logical w.(i - 2) 10 in
    w.(i) <- w.(i - 16) +% s0 +% w.(i - 7) +% s1
  done;
  let a = ref t.h.(0) and b = ref t.h.(1) and c = ref t.h.(2) and d = ref t.h.(3) in
  let e = ref t.h.(4) and f = ref t.h.(5) and g = ref t.h.(6) and h = ref t.h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 ^^ rotr !e 11 ^^ rotr !e 25 in
    let ch = (!e &&& !f) ^^ (Int32.lognot !e &&& !g) in
    let temp1 = !h +% s1 +% ch +% k.(i) +% w.(i) in
    let s0 = rotr !a 2 ^^ rotr !a 13 ^^ rotr !a 22 in
    let maj = (!a &&& !b) ^^ (!a &&& !c) ^^ (!b &&& !c) in
    let temp2 = s0 +% maj in
    h := !g;
    g := !f;
    f := !e;
    e := !d +% temp1;
    d := !c;
    c := !b;
    b := !a;
    a := temp1 +% temp2
  done;
  t.h.(0) <- t.h.(0) +% !a;
  t.h.(1) <- t.h.(1) +% !b;
  t.h.(2) <- t.h.(2) +% !c;
  t.h.(3) <- t.h.(3) +% !d;
  t.h.(4) <- t.h.(4) +% !e;
  t.h.(5) <- t.h.(5) +% !f;
  t.h.(6) <- t.h.(6) +% !g;
  t.h.(7) <- t.h.(7) +% !h

let feed t src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Sha256.feed: range out of bounds";
  t.total <- Int64.add t.total (Int64.of_int len);
  let pos = ref pos and remaining = ref len in
  (* Top up a partial block first. *)
  if t.fill > 0 then begin
    let take = min !remaining (64 - t.fill) in
    Bytes.blit src !pos t.block t.fill take;
    t.fill <- t.fill + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if t.fill = 64 then begin
      compress t t.block 0;
      t.fill <- 0
    end
  end;
  while !remaining >= 64 do
    compress t src !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit src !pos t.block t.fill !remaining;
    t.fill <- t.fill + !remaining
  end

let finish t =
  let bitlen = Int64.mul t.total 8L in
  let pad_start = t.fill in
  Bytes.set t.block pad_start '\x80';
  if pad_start + 1 > 56 then begin
    Bytes.fill t.block (pad_start + 1) (64 - pad_start - 1) '\000';
    compress t t.block 0;
    Bytes.fill t.block 0 56 '\000'
  end
  else Bytes.fill t.block (pad_start + 1) (56 - pad_start - 1) '\000';
  Bytes.set_int64_be t.block 56 bitlen;
  compress t t.block 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) t.h.(i)
  done;
  out

let digest_bytes b =
  let t = init () in
  feed t b ~pos:0 ~len:(Bytes.length b);
  finish t

let digest_string s = digest_bytes (Bytes.of_string s)

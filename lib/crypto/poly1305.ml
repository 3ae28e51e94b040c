(* Poly1305 one-time authenticator (RFC 8439 §2.5).

   Arithmetic over 2^130 - 5 with five 26-bit limbs in native ints: limb
   products are at most 52 bits and a row of five fits comfortably in
   OCaml's 63-bit ints, so no big-number library is needed. The limbs
   live in the state record's int fields and message words are read
   straight from the caller's buffer, so feeding allocates nothing, and
   [reset] re-keys a state for the next message in place. *)

type t = {
  (* clamped key limbs; 5 * r1..r4, for the mod-p fold; final addend s *)
  mutable r0 : int; mutable r1 : int; mutable r2 : int; mutable r3 : int; mutable r4 : int;
  mutable s1 : int; mutable s2 : int; mutable s3 : int; mutable s4 : int;
  mutable pad0 : int; mutable pad1 : int; mutable pad2 : int; mutable pad3 : int;
  mutable h0 : int; mutable h1 : int; mutable h2 : int; mutable h3 : int; mutable h4 : int;
  buf : bytes;  (* 16-byte partial-block buffer *)
  mutable fill : int;
}

let mask26 = (1 lsl 26) - 1
let mask32 = 0xFFFF_FFFF
let[@inline] u32 b off = Int32.to_int (Bytes.get_int32_le b off) land mask32

let reset t key ~off =
  if off < 0 || off > Bytes.length key - 32 then invalid_arg "Poly1305.reset: key range out of bounds";
  (* Clamp r per the RFC. *)
  let k0 = u32 key off land 0x0FFFFFFF in
  let k1 = u32 key (off + 4) land 0x0FFFFFFC in
  let k2 = u32 key (off + 8) land 0x0FFFFFFC in
  let k3 = u32 key (off + 12) land 0x0FFFFFFC in
  let r1 = ((k0 lsr 26) lor (k1 lsl 6)) land mask26 in
  let r2 = ((k1 lsr 20) lor (k2 lsl 12)) land mask26 in
  let r3 = ((k2 lsr 14) lor (k3 lsl 18)) land mask26 in
  let r4 = k3 lsr 8 in
  t.r0 <- k0 land mask26; t.r1 <- r1; t.r2 <- r2; t.r3 <- r3; t.r4 <- r4;
  t.s1 <- 5 * r1; t.s2 <- 5 * r2; t.s3 <- 5 * r3; t.s4 <- 5 * r4;
  t.pad0 <- u32 key (off + 16); t.pad1 <- u32 key (off + 20);
  t.pad2 <- u32 key (off + 24); t.pad3 <- u32 key (off + 28);
  t.h0 <- 0; t.h1 <- 0; t.h2 <- 0; t.h3 <- 0; t.h4 <- 0;
  t.fill <- 0

let init ~key =
  if Bytes.length key <> 32 then invalid_arg "Poly1305.init: key must be 32 bytes";
  let t =
    {
      r0 = 0; r1 = 0; r2 = 0; r3 = 0; r4 = 0;
      s1 = 0; s2 = 0; s3 = 0; s4 = 0;
      pad0 = 0; pad1 = 0; pad2 = 0; pad3 = 0;
      h0 = 0; h1 = 0; h2 = 0; h3 = 0; h4 = 0;
      buf = Bytes.create 16;
      fill = 0;
    }
  in
  reset t key ~off:0;
  t

(* Absorb the 16 bytes of [src] at [off], with [hibit] (2^128 for a full
   block, already padded in for a final partial one) as bit 24 of limb 4. *)
let process t src off ~hibit =
  let w0 = u32 src off and w1 = u32 src (off + 4) in
  let w2 = u32 src (off + 8) and w3 = u32 src (off + 12) in
  let h0 = t.h0 + (w0 land mask26) in
  let h1 = t.h1 + (((w0 lsr 26) lor (w1 lsl 6)) land mask26) in
  let h2 = t.h2 + (((w1 lsr 20) lor (w2 lsl 12)) land mask26) in
  let h3 = t.h3 + (((w2 lsr 14) lor (w3 lsl 18)) land mask26) in
  let h4 = t.h4 + ((w3 lsr 8) lor hibit) in
  (* h <- h * r mod 2^130-5, schoolbook with 5*r folding. *)
  let d0 = (h0 * t.r0) + (h1 * t.s4) + (h2 * t.s3) + (h3 * t.s2) + (h4 * t.s1) in
  let d1 = (h0 * t.r1) + (h1 * t.r0) + (h2 * t.s4) + (h3 * t.s3) + (h4 * t.s2) in
  let d2 = (h0 * t.r2) + (h1 * t.r1) + (h2 * t.r0) + (h3 * t.s4) + (h4 * t.s3) in
  let d3 = (h0 * t.r3) + (h1 * t.r2) + (h2 * t.r1) + (h3 * t.r0) + (h4 * t.s4) in
  let d4 = (h0 * t.r4) + (h1 * t.r3) + (h2 * t.r2) + (h3 * t.r1) + (h4 * t.r0) in
  (* Carry propagation. *)
  let d1 = d1 + (d0 lsr 26) in
  let d2 = d2 + (d1 lsr 26) in
  let d3 = d3 + (d2 lsr 26) in
  let d4 = d4 + (d3 lsr 26) in
  let h0 = (d0 land mask26) + (5 * (d4 lsr 26)) in
  t.h0 <- h0 land mask26;
  t.h1 <- (d1 land mask26) + (h0 lsr 26);
  t.h2 <- d2 land mask26;
  t.h3 <- d3 land mask26;
  t.h4 <- d4 land mask26

let full_block = 1 lsl 24

let feed t src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Poly1305.feed: range out of bounds";
  let pos = ref pos and remaining = ref len in
  if t.fill > 0 then begin
    let take = Int.min !remaining (16 - t.fill) in
    Bytes.blit src !pos t.buf t.fill take;
    t.fill <- t.fill + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if t.fill = 16 then begin
      process t t.buf 0 ~hibit:full_block;
      t.fill <- 0
    end
  end;
  while !remaining >= 16 do
    process t src !pos ~hibit:full_block;
    pos := !pos + 16;
    remaining := !remaining - 16
  done;
  if !remaining > 0 then begin
    Bytes.blit src !pos t.buf t.fill !remaining;
    t.fill <- t.fill + !remaining
  end

let feed_bytes t b = feed t b ~pos:0 ~len:(Bytes.length b)

(* [g]'s limb where [m] is all ones, [h]'s where it is zero. *)
let[@inline] select m h g = (h land lnot m) lor (g land mask26 land m)

let finish_into t dst ~off =
  if off < 0 || off > Bytes.length dst - 16 then
    invalid_arg "Poly1305.finish_into: range out of bounds";
  if t.fill > 0 then begin
    (* Final partial block: a 1 byte after the message, then zeros. *)
    Bytes.set t.buf t.fill '\001';
    Bytes.fill t.buf (t.fill + 1) (15 - t.fill) '\000';
    process t t.buf 0 ~hibit:0;
    t.fill <- 0
  end;
  (* Full carry, then conditional subtraction of p = 2^130 - 5. *)
  let h1 = t.h1 + (t.h0 lsr 26) in
  let h2 = t.h2 + (h1 lsr 26) in
  let h3 = t.h3 + (h2 lsr 26) in
  let h4 = t.h4 + (h3 lsr 26) in
  let h0 = (t.h0 land mask26) + (5 * (h4 lsr 26)) in
  let h1 = (h1 land mask26) + (h0 lsr 26) in
  let h0 = h0 land mask26 and h2 = h2 land mask26 and h3 = h3 land mask26 in
  let h4 = h4 land mask26 in
  let g0 = h0 + 5 in
  let g1 = h1 + (g0 lsr 26) in
  let g2 = h2 + (g1 lsr 26) in
  let g3 = h3 + (g2 lsr 26) in
  let g4 = h4 + (g3 lsr 26) in
  (* If h + 5 overflowed 2^130, g = h - p; select it without branching. *)
  let m = -(g4 lsr 26) in
  let h0 = select m h0 g0 and h1 = select m h1 g1 and h2 = select m h2 g2 in
  let h3 = select m h3 g3 and h4 = select m h4 g4 in
  (* Serialise to 128 bits and add s with 32-bit carries. *)
  let f0 = ((h0 lor (h1 lsl 26)) land mask32) + t.pad0 in
  let f1 = (((h1 lsr 6) lor (h2 lsl 20)) land mask32) + t.pad1 + (f0 lsr 32) in
  let f2 = (((h2 lsr 12) lor (h3 lsl 14)) land mask32) + t.pad2 + (f1 lsr 32) in
  let f3 = (((h3 lsr 18) lor (h4 lsl 8)) land mask32) + t.pad3 + (f2 lsr 32) in
  Bytes.set_int32_le dst off (Int32.of_int f0);
  Bytes.set_int32_le dst (off + 4) (Int32.of_int f1);
  Bytes.set_int32_le dst (off + 8) (Int32.of_int f2);
  Bytes.set_int32_le dst (off + 12) (Int32.of_int f3)

let finish t =
  let out = Bytes.create 16 in
  finish_into t out ~off:0;
  out

let mac ~key msg =
  let t = init ~key in
  feed_bytes t msg;
  finish t

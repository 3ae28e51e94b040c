(* Reference oracle: the original boxed-Int32 ChaCha20 and array-based
   Poly1305, kept verbatim (test-only) so the allocation-free library
   implementation can be checked against it by equivalence properties.
   Not part of any library; nothing outside the tests may call it. *)

module Chacha20 = struct
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

  let init_state ~key ~nonce ~counter =
    if Bytes.length key <> 32 then invalid_arg "Chacha20: key must be 32 bytes";
    if Bytes.length nonce <> 12 then invalid_arg "Chacha20: nonce must be 12 bytes";
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
    st

  let block ~key ~nonce ~counter =
    let st = init_state ~key ~nonce ~counter in
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

  let encrypt ?(counter = 1l) ~key ~nonce data =
    if Bytes.length key <> 32 then invalid_arg "Chacha20: key must be 32 bytes";
    if Bytes.length nonce <> 12 then invalid_arg "Chacha20: nonce must be 12 bytes";
    let n = Bytes.length data in
    let out = Bytes.create n in
    let blocks = (n + 63) / 64 in
    for b = 0 to blocks - 1 do
      let ks = block ~key ~nonce ~counter:(Int32.add counter (Int32.of_int b)) in
      let off = 64 * b in
      let len = min 64 (n - off) in
      for i = 0 to len - 1 do
        Bytes.set out (off + i)
          (Char.chr (Char.code (Bytes.get data (off + i)) lxor Char.code (Bytes.get ks i)))
      done
    done;
    out

  let decrypt = encrypt
end

module Poly1305 = struct
  type t = {
    r : int array;              (* clamped key, 5 limbs *)
    s : int array;              (* final addend, 4 x 32-bit words *)
    h : int array;              (* accumulator, 5 limbs *)
    buf : bytes;                (* 16-byte input buffer *)
    mutable fill : int;
  }

  let mask26 = (1 lsl 26) - 1

  let u32 b off =
    Char.code (Bytes.get b off)
    lor (Char.code (Bytes.get b (off + 1)) lsl 8)
    lor (Char.code (Bytes.get b (off + 2)) lsl 16)
    lor (Char.code (Bytes.get b (off + 3)) lsl 24)

  let init ~key =
    if Bytes.length key <> 32 then invalid_arg "Poly1305.init: key must be 32 bytes";
    (* Clamp r per the RFC. *)
    let r0 = u32 key 0 land 0x0FFFFFFF in
    let r1 = u32 key 4 land 0x0FFFFFFC in
    let r2 = u32 key 8 land 0x0FFFFFFC in
    let r3 = u32 key 12 land 0x0FFFFFFC in
    let r =
      [|
        r0 land mask26;
        ((r0 lsr 26) lor (r1 lsl 6)) land mask26;
        ((r1 lsr 20) lor (r2 lsl 12)) land mask26;
        ((r2 lsr 14) lor (r3 lsl 18)) land mask26;
        r3 lsr 8;
      |]
    in
    {
      r;
      s = [| u32 key 16; u32 key 20; u32 key 24; u32 key 28 |];
      h = Array.make 5 0;
      buf = Bytes.create 16;
      fill = 0;
    }

  (* Process one 16-byte block (or final partial block with its own pad). *)
  let process t block ~partial_len =
    let full = partial_len = 0 in
    let m = Bytes.make 17 '\000' in
    if full then begin
      Bytes.blit block 0 m 0 16;
      Bytes.set m 16 '\001'
    end
    else begin
      Bytes.blit block 0 m 0 partial_len;
      Bytes.set m partial_len '\001'
    end;
    let w0 = u32 m 0 and w1 = u32 m 4 and w2 = u32 m 8 and w3 = u32 m 12 in
    let hi = Char.code (Bytes.get m 16) in
    let h = t.h and r = t.r in
    h.(0) <- h.(0) + (w0 land mask26);
    h.(1) <- h.(1) + (((w0 lsr 26) lor (w1 lsl 6)) land mask26);
    h.(2) <- h.(2) + (((w1 lsr 20) lor (w2 lsl 12)) land mask26);
    h.(3) <- h.(3) + (((w2 lsr 14) lor (w3 lsl 18)) land mask26);
    h.(4) <- h.(4) + ((w3 lsr 8) lor (hi lsl 24));
    (* h <- h * r mod 2^130-5, schoolbook with 5*r folding. *)
    let r5 = Array.map (fun x -> 5 * x) r in
    let d0 = (h.(0) * r.(0)) + (h.(1) * r5.(4)) + (h.(2) * r5.(3)) + (h.(3) * r5.(2)) + (h.(4) * r5.(1)) in
    let d1 = (h.(0) * r.(1)) + (h.(1) * r.(0)) + (h.(2) * r5.(4)) + (h.(3) * r5.(3)) + (h.(4) * r5.(2)) in
    let d2 = (h.(0) * r.(2)) + (h.(1) * r.(1)) + (h.(2) * r.(0)) + (h.(3) * r5.(4)) + (h.(4) * r5.(3)) in
    let d3 = (h.(0) * r.(3)) + (h.(1) * r.(2)) + (h.(2) * r.(1)) + (h.(3) * r.(0)) + (h.(4) * r5.(4)) in
    let d4 = (h.(0) * r.(4)) + (h.(1) * r.(3)) + (h.(2) * r.(2)) + (h.(3) * r.(1)) + (h.(4) * r.(0)) in
    (* Carry propagation. *)
    let c = d0 lsr 26 in
    let d1 = d1 + c in
    h.(0) <- d0 land mask26;
    let c = d1 lsr 26 in
    let d2 = d2 + c in
    h.(1) <- d1 land mask26;
    let c = d2 lsr 26 in
    let d3 = d3 + c in
    h.(2) <- d2 land mask26;
    let c = d3 lsr 26 in
    let d4 = d4 + c in
    h.(3) <- d3 land mask26;
    let c = d4 lsr 26 in
    h.(4) <- d4 land mask26;
    h.(0) <- h.(0) + (5 * c);
    let c = h.(0) lsr 26 in
    h.(0) <- h.(0) land mask26;
    h.(1) <- h.(1) + c

  let feed t src ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length src then
      invalid_arg "Poly1305.feed: range out of bounds";
    let pos = ref pos and remaining = ref len in
    if t.fill > 0 then begin
      let take = min !remaining (16 - t.fill) in
      Bytes.blit src !pos t.buf t.fill take;
      t.fill <- t.fill + take;
      pos := !pos + take;
      remaining := !remaining - take;
      if t.fill = 16 then begin
        process t t.buf ~partial_len:0;
        t.fill <- 0
      end
    end;
    while !remaining >= 16 do
      let blk = Bytes.sub src !pos 16 in
      process t blk ~partial_len:0;
      pos := !pos + 16;
      remaining := !remaining - 16
    done;
    if !remaining > 0 then begin
      Bytes.blit src !pos t.buf t.fill !remaining;
      t.fill <- t.fill + !remaining
    end

  let feed_bytes t b = feed t b ~pos:0 ~len:(Bytes.length b)

  let finish t =
    if t.fill > 0 then begin
      process t t.buf ~partial_len:t.fill;
      t.fill <- 0
    end;
    let h = t.h in
    (* Full carry, then conditional subtraction of p = 2^130 - 5. *)
    let c = ref 0 in
    for i = 0 to 4 do
      h.(i) <- h.(i) + !c;
      c := h.(i) lsr 26;
      h.(i) <- h.(i) land mask26
    done;
    h.(0) <- h.(0) + (5 * !c);
    let c = h.(0) lsr 26 in
    h.(0) <- h.(0) land mask26;
    h.(1) <- h.(1) + c;
    let g = Array.make 5 0 in
    let c = ref 5 in
    for i = 0 to 4 do
      g.(i) <- h.(i) + !c;
      c := g.(i) lsr 26;
      g.(i) <- g.(i) land mask26
    done;
    (* If h + 5 overflowed 2^130, g = h - p; select it. *)
    let use_g = !c > 0 in
    let sel = if use_g then g else h in
    (* Serialise to 128 bits and add s with 32-bit carries. *)
    let w0 = sel.(0) lor (sel.(1) lsl 26) in
    let w1 = (sel.(1) lsr 6) lor (sel.(2) lsl 20) in
    let w2 = (sel.(2) lsr 12) lor (sel.(3) lsl 14) in
    let w3 = (sel.(3) lsr 18) lor (sel.(4) lsl 8) in
    let mask32 = 0xFFFFFFFF in
    let f0 = (w0 land mask32) + t.s.(0) in
    let f1 = (w1 land mask32) + t.s.(1) + (f0 lsr 32) in
    let f2 = (w2 land mask32) + t.s.(2) + (f1 lsr 32) in
    let f3 = (w3 land mask32) + t.s.(3) + (f2 lsr 32) in
    let out = Bytes.create 16 in
    let put off v =
      Bytes.set out off (Char.chr (v land 0xFF));
      Bytes.set out (off + 1) (Char.chr ((v lsr 8) land 0xFF));
      Bytes.set out (off + 2) (Char.chr ((v lsr 16) land 0xFF));
      Bytes.set out (off + 3) (Char.chr ((v lsr 24) land 0xFF))
    in
    put 0 f0;
    put 4 f1;
    put 8 f2;
    put 12 f3;
    out

  let mac ~key msg =
    let t = init ~key in
    feed_bytes t msg;
    finish t
end

(* RFC 8439 §2.8 over the oracle primitives. *)
module Aead = struct
  let tag ~key ~nonce ~aad ciphertext =
    let otk = Bytes.sub (Chacha20.block ~key ~nonce ~counter:0l) 0 32 in
    let p = Poly1305.init ~key:otk in
    let pad16 n = if n mod 16 <> 0 then Poly1305.feed_bytes p (Bytes.make (16 - (n mod 16)) '\000') in
    let le64 v =
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 (Int64.of_int v);
      b
    in
    Poly1305.feed_bytes p aad;
    pad16 (Bytes.length aad);
    Poly1305.feed_bytes p ciphertext;
    pad16 (Bytes.length ciphertext);
    Poly1305.feed_bytes p (le64 (Bytes.length aad));
    Poly1305.feed_bytes p (le64 (Bytes.length ciphertext));
    Poly1305.finish p

  let seal ~key ~nonce ~aad plaintext =
    let c = Chacha20.encrypt ~counter:1l ~key ~nonce plaintext in
    Bytes.cat c (tag ~key ~nonce ~aad c)
end

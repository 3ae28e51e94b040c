(* A byte FIFO over one growable buffer.

   Appends copy in at the back; reads copy out of the front and advance
   an offset, so consuming part of the queue never re-copies the rest.
   The live bytes move back to the start only when an append would
   otherwise run off the end, and only if they fill at most half the
   buffer (else it doubles), so each byte is moved O(1) times amortised. *)

type t = { mutable buf : bytes; mutable off : int; mutable len : int }

let create n = { buf = Bytes.create (max n 16); off = 0; len = 0 }
let length t = t.len

let add_subbytes t src pos n =
  if pos < 0 || n < 0 || pos > Bytes.length src - n then
    invalid_arg "Byteq.add_subbytes: range out of bounds";
  let cap = Bytes.length t.buf in
  if t.off + t.len + n > cap then begin
    let need = t.len + n in
    let dst = if need <= cap / 2 then t.buf else Bytes.create (max need (2 * cap)) in
    Bytes.blit t.buf t.off dst 0 t.len;
    t.buf <- dst;
    t.off <- 0
  end;
  Bytes.blit src pos t.buf (t.off + t.len) n;
  t.len <- t.len + n

let add_bytes t src = add_subbytes t src 0 (Bytes.length src)

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Byteq.get: index out of bounds";
  Bytes.get t.buf (t.off + i)

let drop t n =
  if n < 0 || n > t.len then invalid_arg "Byteq.drop: count out of bounds";
  t.len <- t.len - n;
  t.off <- (if t.len = 0 then 0 else t.off + n)

let take t n =
  if n < 0 || n > t.len then invalid_arg "Byteq.take: count out of bounds";
  let out = Bytes.sub t.buf t.off n in
  drop t n;
  out

let consume t f =
  let n = f t.buf t.off t.len in
  drop t n;
  n

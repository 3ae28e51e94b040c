(* HMAC-SHA256 (RFC 2104 / RFC 4231 test vectors). *)

let block_size = 64

let normalize_key key =
  let key = if Bytes.length key > block_size then Sha256.digest_bytes key else key in
  let k = Bytes.make block_size '\000' in
  Bytes.blit key 0 k 0 (Bytes.length key);
  k

let xor_pad key byte =
  let out = Bytes.create block_size in
  for i = 0 to block_size - 1 do
    Bytes.set out i (Char.chr (Char.code (Bytes.get key i) lxor byte))
  done;
  out

type t = { inner : Sha256.t; okey : bytes }

let init ~key =
  let key = normalize_key key in
  let inner = Sha256.init () in
  Sha256.feed_bytes inner (xor_pad key 0x36);
  { inner; okey = xor_pad key 0x5c }

let feed_bytes t b = Sha256.feed_bytes t.inner b

let finish t =
  let inner_digest = Sha256.finish t.inner in
  let outer = Sha256.init () in
  Sha256.feed_bytes outer t.okey;
  Sha256.feed_bytes outer inner_digest;
  Sha256.finish outer

let digest_bytes ~key msg =
  let t = init ~key in
  feed_bytes t msg;
  finish t

let digest_string ~key msg = digest_bytes ~key:(Bytes.of_string key) (Bytes.of_string msg)

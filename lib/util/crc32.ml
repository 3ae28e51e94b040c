(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).

   No library module calls it: the tests use it as a cheap integrity
   probe, and the benchmark uses it for its running payload digest. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           if Int32.logand !c 1l <> 0l then
             c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
           else c := Int32.shift_right_logical !c 1
         done;
         !c))

let update crc b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.update: range out of bounds";
  let table = Lazy.force table in
  let crc = ref (Int32.logxor crc 0xFFFFFFFFl) in
  for i = pos to pos + len - 1 do
    let idx = Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code (Bytes.get b i)))) 0xFFl) in
    crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8)
  done;
  Int32.logxor !crc 0xFFFFFFFFl

let digest_bytes b = update 0l b ~pos:0 ~len:(Bytes.length b)
let digest_string s = digest_bytes (Bytes.of_string s)

(* Hex encoding/decoding, used by tests (RFC vectors) and by trace
   output. *)

let of_bytes b =
  let n = Bytes.length b in
  let out = Buffer.create (2 * n) in
  for i = 0 to n - 1 do
    Buffer.add_string out (Printf.sprintf "%02x" (Char.code (Bytes.get b i)))
  done;
  Buffer.contents out

let nibble c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Hex.to_bytes: invalid hex digit"

let to_bytes s =
  (* Whitespace is permitted so RFC vectors can be pasted verbatim. *)
  let compact = Buffer.create (String.length s) in
  String.iter
    (fun c -> match c with ' ' | '\n' | '\t' | '\r' -> () | c -> Buffer.add_char compact c)
    s;
  let s = Buffer.contents compact in
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Hex.to_bytes: odd length";
  let out = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    let hi = nibble s.[2 * i] and lo = nibble s.[(2 * i) + 1] in
    Bytes.set out i (Char.chr ((hi lsl 4) lor lo))
  done;
  out

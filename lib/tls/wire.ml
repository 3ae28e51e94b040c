(* Record framing for the L5 channel.

   A record is { content_type:u8, flags:u8, length:u16be } followed by the
   body. The splitter accumulates an untrusted byte stream (what the
   untrusted I/O stack delivers) and emits complete records; it never
   trusts the stream beyond the declared length, and oversized lengths are
   rejected outright. *)

open Cio_util

type content_type = Handshake | Data | Alert

let content_code = function Handshake -> 22 | Data -> 23 | Alert -> 21

let content_of_code = function
  | 22 -> Some Handshake
  | 23 -> Some Data
  | 21 -> Some Alert
  | _ -> None

let content_name = function
  | Handshake -> "handshake"
  | Data -> "data"
  | Alert -> "alert"

let header_len = 4
let max_body = 16384 + 256  (* plaintext limit + AEAD expansion headroom *)

type record = { ctype : content_type; body : bytes }

let header ~ctype ~len =
  let b = Bytes.create header_len in
  Bytes.set b 0 (Char.chr (content_code ctype));
  Bytes.set b 1 '\000';
  Bytes.set_uint16_be b 2 len;
  b

let encode { ctype; body } =
  let len = Bytes.length body in
  if len > max_body then invalid_arg "Wire.encode: record body too large";
  Bytes.cat (header ~ctype ~len) body

type splitter = { buf : Byteq.t; mutable dead : bool }

let splitter () = { buf = Byteq.create 4096; dead = false }

type split_result = Records of record list | Malformed of string

let feed t data =
  if t.dead then Malformed "splitter poisoned by earlier malformed input"
  else begin
    let q = t.buf in
    Byteq.add_bytes q data;
    let byte i = Char.code (Byteq.get q i) in
    let out = ref [] in
    let err = ref None in
    let continue = ref true in
    while !continue do
      let have = Byteq.length q in
      if have < header_len then continue := false
      else begin
        match content_of_code (byte 0) with
        | None ->
            t.dead <- true;
            err := Some (Printf.sprintf "unknown content type %d" (byte 0));
            continue := false
        | Some ctype ->
            let len = (byte 2 lsl 8) lor byte 3 in
            if len > max_body then begin
              t.dead <- true;
              err := Some (Printf.sprintf "record length %d exceeds limit" len);
              continue := false
            end
            else if have < header_len + len then continue := false
            else begin
              Byteq.drop q header_len;
              out := { ctype; body = Byteq.take q len } :: !out
            end
      end
    done;
    match !err with Some e -> Malformed e | None -> Records (List.rev !out)
  end

(* Record framing for the L5 channel.

   A record is { content_type:u8, flags:u8, length:u16be } followed by the
   body. The splitter accumulates an untrusted byte stream (what the
   untrusted I/O stack delivers) and hands out complete records as views
   of its own buffer; it never trusts the stream beyond the declared
   length, and oversized lengths are rejected outright. *)

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

let write_header b ~off ~ctype ~len =
  Bytes.set b off (Char.chr (content_code ctype));
  Bytes.set b (off + 1) '\000';
  Bytes.set_uint16_be b (off + 2) len

let encode { ctype; body } =
  let len = Bytes.length body in
  if len > max_body then invalid_arg "Wire.encode: record body too large";
  let b = Bytes.create (header_len + len) in
  write_header b ~off:0 ~ctype ~len;
  Bytes.blit body 0 b header_len len;
  b

type view = {
  mutable kind : content_type;
  mutable buf : bytes;
  mutable off : int;
  mutable len : int;
}

(* [checked] bytes from the front are whole records whose headers have
   been validated and not yet handed out. *)
type splitter = { q : Byteq.t; mutable dead : bool; mutable checked : int; view : view }

let splitter () =
  {
    q = Byteq.create 4096;
    dead = false;
    checked = 0;
    view = { kind = Data; buf = Bytes.empty; off = 0; len = 0 };
  }

let poisoned = Some "splitter poisoned by earlier malformed input"

let byte t i = Char.code (Byteq.get t.q (t.checked + i))

(* Validate the headers of every complete record past [checked], and the
   header of the first incomplete one once its four bytes are in. *)
let rec scan t =
  let have = Byteq.length t.q - t.checked in
  if have < header_len then None
  else begin
    match content_of_code (byte t 0) with
    | None ->
        t.dead <- true;
        Some (Printf.sprintf "unknown content type %d" (byte t 0))
    | Some _ ->
        let len = (byte t 2 lsl 8) lor byte t 3 in
        if len > max_body then begin
          t.dead <- true;
          Some (Printf.sprintf "record length %d exceeds limit" len)
        end
        else if have < header_len + len then None
        else begin
          t.checked <- t.checked + header_len + len;
          scan t
        end
  end

let push t src ~off ~len =
  if t.dead then poisoned
  else begin
    Byteq.add_subbytes t.q src off len;
    scan t
  end

let next t =
  (not t.dead) && t.checked > 0
  && begin
       let q = t.q and v = t.view in
       let buf = Byteq.storage q and front = Byteq.front q in
       let len = Bytes.get_uint16_be buf (front + 2) in
       (match content_of_code (Bytes.get_uint8 buf front) with
       | Some kind -> v.kind <- kind
       | None -> assert false (* validated by [scan] *));
       v.buf <- buf;
       v.off <- front + header_len;
       v.len <- len;
       (* Dropping moves no bytes: the view stays valid until the next push. *)
       Byteq.drop q (header_len + len);
       t.checked <- t.checked - header_len - len;
       true
     end

let view t = t.view

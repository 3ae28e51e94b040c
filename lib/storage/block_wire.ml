(* Block I/O wire format carried over the safe ring (§3.3: the same
   dual-boundary treatment applied to storage; the low-level boundary is
   the block layer, the high-level one is file operations).

   Request:  { op:u8, lba:u32, len:u32, payload }
   Response: { status:u8, lba:u32, len:u32, payload }

   Fixed-size headers, no negotiation, stateless request/response pairs
   matched by lba — the L2 principles transposed to storage.

   The block device encodes and parses messages in place, in pooled
   buffers ([put_header], [payload_len]). *)

type op = Read | Write

let op_code = function Read -> 1 | Write -> 2
let op_of_code = function 1 -> Some Read | 2 -> Some Write | _ -> None

type status = Ok_ | Error_

let status_code = function Ok_ -> 0 | Error_ -> 1
let status_of_code = function 0 -> Some Ok_ | 1 -> Some Error_ | _ -> None

let header_len = 9

let put_header b ~code ~lba ~len =
  Bytes.set b 0 (Char.chr code);
  Bytes.set_int32_le b 1 (Int32.of_int lba);
  Bytes.set_int32_le b 5 (Int32.of_int len)

let code b = Char.code (Bytes.get b 0)
let lba b = Int32.to_int (Bytes.get_int32_le b 1)

(* The one validation both directions share: the claimed payload length,
   or -1 when the header is short or claims a negative lba, a negative
   length or more payload than the message holds. *)
let payload_len b =
  if Bytes.length b < header_len then -1
  else begin
    let len = Int32.to_int (Bytes.get_int32_le b 5) in
    if lba b < 0 || len < 0 || header_len + len > Bytes.length b then -1 else len
  end

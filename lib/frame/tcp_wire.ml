(* TCP segment codec (RFC 9293 wire format). Sequence numbers are int32
   with modular comparison helpers; the only option understood is MSS
   (kind 2), everything else is skipped on decode and never emitted. *)

type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

let flags_none = { syn = false; ack = false; fin = false; rst = false; psh = false }

let pp_flags ppf f =
  let tag c b = if b then String.make 1 c else "" in
  Fmt.pf ppf "%s%s%s%s%s"
    (tag 'S' f.syn) (tag 'A' f.ack) (tag 'F' f.fin) (tag 'R' f.rst) (tag 'P' f.psh)

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack : int32;
  flags : flags;
  window : int;
  mss : int option;  (* only meaningful on SYN segments *)
  payload_off : int;
  payload_len : int;
}

let base_header_len = 20

let header_len t = if Option.is_none t.mss then base_header_len else base_header_len + 4

(* Modular sequence arithmetic. *)
let seq_lt a b = Int32.compare (Int32.sub a b) 0l < 0
let seq_leq a b = Int32.compare (Int32.sub a b) 0l <= 0
let seq_add a n = Int32.add a (Int32.of_int n)
let seq_diff a b = Int32.to_int (Int32.sub a b)

let flag_bits f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.ack then 0x10 else 0)

let encode b ~off ~src_ip ~dst_ip t =
  let header_len = header_len t in
  let total = header_len + t.payload_len in
  if total > 0xFFFF then invalid_arg "Tcp_wire.encode: segment too large";
  Bytes.set_uint16_be b off t.src_port;
  Bytes.set_uint16_be b (off + 2) t.dst_port;
  Bytes.set_int32_be b (off + 4) t.seq;
  Bytes.set_int32_be b (off + 8) t.ack;
  Bytes.set b (off + 12) (Char.chr ((header_len / 4) lsl 4));
  Bytes.set b (off + 13) (Char.chr (flag_bits t.flags));
  Bytes.set_uint16_be b (off + 14) t.window;
  Bytes.set_uint16_be b (off + 16) 0;
  Bytes.set_uint16_be b (off + 18) 0;
  (match t.mss with
  | None -> ()
  | Some mss ->
      Bytes.set b (off + 20) '\x02';
      Bytes.set b (off + 21) '\x04';
      Bytes.set_uint16_be b (off + 22) mss);
  let init = Checksum.pseudo_sum ~src:src_ip ~dst:dst_ip ~proto:6 ~length:total in
  Bytes.set_uint16_be b (off + 16)
    (Checksum.finish (Checksum.ones_complement_sum b ~pos:off ~len:total ~init))

let parse_mss b ~pos ~len =
  (* Walk the options area looking for MSS; tolerate unknown options. *)
  let stop = pos + len in
  let rec go i =
    if i >= stop then None
    else begin
      match Char.code (Bytes.get b i) with
      | 0 -> None  (* end of options *)
      | 1 -> go (i + 1)  (* NOP *)
      | 2 when i + 3 < stop && Char.code (Bytes.get b (i + 1)) = 4 ->
          Some (Bytes.get_uint16_be b (i + 2))
      | _ ->
          if i + 1 >= stop then None
          else begin
            let olen = Char.code (Bytes.get b (i + 1)) in
            if olen < 2 then None else go (i + olen)
          end
    end
  in
  go pos

let decode ~src_ip ~dst_ip b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Tcp_wire.decode: range out of bounds";
  if len < base_header_len then Error "tcp: truncated header"
  else begin
    let data_off = (Char.code (Bytes.get b (off + 12)) lsr 4) * 4 in
    if data_off < base_header_len || data_off > len then Error "tcp: bad data offset"
    else begin
      let init = Checksum.pseudo_sum ~src:src_ip ~dst:dst_ip ~proto:6 ~length:len in
      if Checksum.ones_complement_sum b ~pos:off ~len ~init <> 0xFFFF then
        Error "tcp: checksum mismatch"
      else begin
        let bits = Char.code (Bytes.get b (off + 13)) in
        let flags =
          {
            fin = bits land 0x01 <> 0;
            syn = bits land 0x02 <> 0;
            rst = bits land 0x04 <> 0;
            psh = bits land 0x08 <> 0;
            ack = bits land 0x10 <> 0;
          }
        in
        Ok
          {
            src_port = Bytes.get_uint16_be b off;
            dst_port = Bytes.get_uint16_be b (off + 2);
            seq = Bytes.get_int32_be b (off + 4);
            ack = Bytes.get_int32_be b (off + 8);
            flags;
            window = Bytes.get_uint16_be b (off + 14);
            mss = parse_mss b ~pos:(off + base_header_len) ~len:(data_off - base_header_len);
            payload_off = off + data_off;
            payload_len = len - data_off;
          }
      end
    end
  end

(* TCP segment codec (RFC 9293 wire format). Sequence numbers are native
   ints holding 32 bits, with modular comparison helpers; the only option
   understood is MSS (kind 2), everything else is skipped on decode and
   never emitted. *)

(* The five flags the codec knows, as their bits in header byte 13. *)
let fin = 0x01
let syn = 0x02
let rst = 0x04
let psh = 0x08
let ack = 0x10
let known_flags = 0x1F

let[@inline] has flags f = flags land f <> 0

let pp_flags ppf f =
  let tag c b = if has f b then String.make 1 c else "" in
  Fmt.pf ppf "%s%s%s%s%s" (tag 'S' syn) (tag 'A' ack) (tag 'F' fin) (tag 'R' rst) (tag 'P' psh)

let no_mss = -1

type t = {
  mutable src_port : int;
  mutable dst_port : int;
  mutable seq : int;
  mutable ack : int;
  mutable flags : int;
  mutable window : int;
  mutable mss : int;  (* [no_mss] unless the segment carries the option *)
  mutable payload_off : int;
  mutable payload_len : int;
}

let create () =
  {
    src_port = 0;
    dst_port = 0;
    seq = 0;
    ack = 0;
    flags = 0;
    window = 0;
    mss = no_mss;
    payload_off = 0;
    payload_len = 0;
  }

let base_header_len = 20

let header_len t = if t.mss < 0 then base_header_len else base_header_len + 4

(* Modular sequence arithmetic. Bit 31 of the wrapped difference is the
   sign of the distance, as in Int32 subtraction. *)
let seq_shift = Sys.int_size - 32
let[@inline] seq_diff a b = ((a - b) lsl seq_shift) asr seq_shift
let[@inline] seq_lt a b = seq_diff a b < 0
let[@inline] seq_leq a b = seq_diff a b <= 0
let[@inline] seq_add a n = (a + n) land 0xFFFFFFFF

let encode b ~off ~src_ip ~dst_ip t =
  let header_len = header_len t in
  let total = header_len + t.payload_len in
  if total > 0xFFFF then invalid_arg "Tcp_wire.encode: segment too large";
  Bytes.set_uint16_be b off t.src_port;
  Bytes.set_uint16_be b (off + 2) t.dst_port;
  Addr.set_u32 b (off + 4) t.seq;
  Addr.set_u32 b (off + 8) t.ack;
  Bytes.set b (off + 12) (Char.chr ((header_len / 4) lsl 4));
  Bytes.set b (off + 13) (Char.chr (t.flags land known_flags));
  Bytes.set_uint16_be b (off + 14) t.window;
  Bytes.set_uint16_be b (off + 16) 0;
  Bytes.set_uint16_be b (off + 18) 0;
  if t.mss >= 0 then begin
    Bytes.set b (off + 20) '\x02';
    Bytes.set b (off + 21) '\x04';
    Bytes.set_uint16_be b (off + 22) t.mss
  end;
  let init = Checksum.pseudo_sum ~src:src_ip ~dst:dst_ip ~proto:6 ~length:total in
  Bytes.set_uint16_be b (off + 16)
    (Checksum.finish (Checksum.ones_complement_sum b ~pos:off ~len:total ~init))

(* The MSS option's value in the options area from [i] to [stop], or
   [no_mss]; unknown options are skipped. *)
let rec parse_mss b i stop =
  if i >= stop then no_mss
  else begin
    match Char.code (Bytes.get b i) with
    | 0 -> no_mss  (* end of options *)
    | 1 -> parse_mss b (i + 1) stop  (* NOP *)
    | 2 when i + 3 < stop && Char.code (Bytes.get b (i + 1)) = 4 -> Bytes.get_uint16_be b (i + 2)
    | _ ->
        if i + 1 >= stop then no_mss
        else begin
          let olen = Char.code (Bytes.get b (i + 1)) in
          if olen < 2 then no_mss else parse_mss b (i + olen) stop
        end
  end

let decode h ~src_ip ~dst_ip b ~off ~len =
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
        h.src_port <- Bytes.get_uint16_be b off;
        h.dst_port <- Bytes.get_uint16_be b (off + 2);
        h.seq <- Addr.get_u32 b (off + 4);
        h.ack <- Addr.get_u32 b (off + 8);
        h.flags <- Char.code (Bytes.get b (off + 13)) land known_flags;
        h.window <- Bytes.get_uint16_be b (off + 14);
        h.mss <- parse_mss b (off + base_header_len) (off + data_off);
        h.payload_off <- off + data_off;
        h.payload_len <- len - data_off;
        Ok ()
      end
    end
  end

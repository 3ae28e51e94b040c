(* Reference oracle: the original allocate-per-layer frame codecs, kept
   verbatim (test-only) so the in-place library codecs can be checked
   against them by equivalence properties: every [build] returns a fresh
   exact-length buffer, every [parse] a fresh record and payload copy.
   The oracle keeps the original field types too: IPv4 addresses and
   sequence numbers are [int32], flags a record of booleans, MSS an
   option. Not part of any library; nothing outside the tests may call
   it. *)

open Cio_frame

type ipv4 = int32

let of_addr (ip : Addr.ipv4) : ipv4 = Int32.of_int ip

module Checksum = struct
  include Checksum

  (* Pseudo-header contribution for TCP checksums. *)
  let pseudo_header ~src ~dst ~proto ~length =
    let b = Bytes.create 12 in
    Bytes.set_int32_be b 0 src;
    Bytes.set_int32_be b 4 dst;
    Bytes.set b 8 '\000';
    Bytes.set b 9 (Char.chr proto);
    Bytes.set_uint16_be b 10 length;
    b
end

module Ethernet = struct
  type ethertype = Ethernet.ethertype = Ipv4 | Arp | Unknown of int

  let ethertype_code = Ethernet.ethertype_code
  let ethertype_of_code = Ethernet.ethertype_of_code

  type t = { dst : Addr.mac; src : Addr.mac; ethertype : ethertype; payload : bytes }

  let header_len = 14
  let min_payload = 46  (* classic Ethernet minimum; we pad on build *)
  let max_payload = 1500

  let build { dst; src; ethertype; payload } =
    let pay_len = max (Bytes.length payload) min_payload in
    let b = Bytes.make (header_len + pay_len) '\000' in
    for i = 0 to 5 do
      Bytes.set b i (Char.chr (Addr.mac_octet dst i));
      Bytes.set b (6 + i) (Char.chr (Addr.mac_octet src i))
    done;
    Bytes.set_uint16_be b 12 (ethertype_code ethertype);
    Bytes.blit payload 0 b header_len (Bytes.length payload);
    b

  let parse b =
    if Bytes.length b < header_len then Error "ethernet: frame shorter than header"
    else begin
      let mac_at off =
        Addr.mac_of_octets
          (Char.code (Bytes.get b off))
          (Char.code (Bytes.get b (off + 1)))
          (Char.code (Bytes.get b (off + 2)))
          (Char.code (Bytes.get b (off + 3)))
          (Char.code (Bytes.get b (off + 4)))
          (Char.code (Bytes.get b (off + 5)))
      in
      Ok
        {
          dst = mac_at 0;
          src = mac_at 6;
          ethertype = ethertype_of_code (Bytes.get_uint16_be b 12);
          payload = Bytes.sub b header_len (Bytes.length b - header_len);
        }
    end
end

module Ipv4 = struct
  type protocol = Ipv4.protocol = Tcp | Unknown of int

  let protocol_code = Ipv4.protocol_code
  let protocol_of_code = Ipv4.protocol_of_code

  type t = {
    src : ipv4;
    dst : ipv4;
    protocol : protocol;
    ttl : int;
    payload : bytes;
  }

  let header_len = 20

  let build { src; dst; protocol; ttl; payload } =
    let total = header_len + Bytes.length payload in
    if total > 0xFFFF then invalid_arg "Ipv4.build: packet too large";
    let b = Bytes.make total '\000' in
    Bytes.set b 0 '\x45';  (* version 4, IHL 5 *)
    Bytes.set_uint16_be b 2 total;
    Bytes.set_uint16_be b 6 0x4000;  (* DF set, no fragments *)
    Bytes.set b 8 (Char.chr (ttl land 0xFF));
    Bytes.set b 9 (Char.chr (protocol_code protocol));
    Bytes.set_int32_be b 12 src;
    Bytes.set_int32_be b 16 dst;
    let csum = Checksum.compute b ~pos:0 ~len:header_len in
    Bytes.set_uint16_be b 10 csum;
    Bytes.blit payload 0 b header_len (Bytes.length payload);
    b

  let parse b =
    let len = Bytes.length b in
    if len < header_len then Error "ipv4: truncated header"
    else begin
      let vihl = Char.code (Bytes.get b 0) in
      let version = vihl lsr 4 and ihl = (vihl land 0xF) * 4 in
      if version <> 4 then Error "ipv4: not version 4"
      else if ihl < header_len then Error "ipv4: bad IHL"
      else if ihl > len then Error "ipv4: IHL beyond packet"
      else begin
        let total = Bytes.get_uint16_be b 2 in
        if total < ihl || total > len then Error "ipv4: bad total length"
        else if not (Checksum.verify b ~pos:0 ~len:ihl) then Error "ipv4: header checksum mismatch"
        else begin
          let frag = Bytes.get_uint16_be b 6 in
          let more_fragments = frag land 0x2000 <> 0 in
          let frag_offset = frag land 0x1FFF in
          if more_fragments || frag_offset <> 0 then Error "ipv4: fragmentation unsupported"
          else
            Ok
              {
                src = Bytes.get_int32_be b 12;
                dst = Bytes.get_int32_be b 16;
                protocol = protocol_of_code (Char.code (Bytes.get b 9));
                ttl = Char.code (Bytes.get b 8);
                payload = Bytes.sub b ihl (total - ihl);
              }
        end
      end
    end
end

module Tcp_wire = struct
  type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

  let flags_none = { syn = false; ack = false; fin = false; rst = false; psh = false }

  type t = {
    src_port : int;
    dst_port : int;
    seq : int32;
    ack : int32;
    flags : flags;
    window : int;
    mss : int option;  (* only meaningful on SYN segments *)
    payload : bytes;
  }

  let base_header_len = 20

  let flag_bits f =
    (if f.fin then 0x01 else 0)
    lor (if f.syn then 0x02 else 0)
    lor (if f.rst then 0x04 else 0)
    lor (if f.psh then 0x08 else 0)
    lor (if f.ack then 0x10 else 0)

  let build ~src_ip ~dst_ip t =
    let opts =
      match t.mss with
      | None -> Bytes.empty
      | Some mss ->
          let o = Bytes.create 4 in
          Bytes.set o 0 '\x02';
          Bytes.set o 1 '\x04';
          Bytes.set_uint16_be o 2 mss;
          o
    in
    let header_len = base_header_len + Bytes.length opts in
    let total = header_len + Bytes.length t.payload in
    if total > 0xFFFF then invalid_arg "Tcp_wire.build: segment too large";
    let b = Bytes.make total '\000' in
    Bytes.set_uint16_be b 0 t.src_port;
    Bytes.set_uint16_be b 2 t.dst_port;
    Bytes.set_int32_be b 4 t.seq;
    Bytes.set_int32_be b 8 t.ack;
    Bytes.set b 12 (Char.chr ((header_len / 4) lsl 4));
    Bytes.set b 13 (Char.chr (flag_bits t.flags));
    Bytes.set_uint16_be b 14 t.window;
    Bytes.blit opts 0 b base_header_len (Bytes.length opts);
    Bytes.blit t.payload 0 b header_len (Bytes.length t.payload);
    let pseudo = Checksum.pseudo_header ~src:src_ip ~dst:dst_ip ~proto:6 ~length:total in
    let init = Checksum.ones_complement_sum pseudo ~pos:0 ~len:12 ~init:0 in
    let csum = Checksum.finish (Checksum.ones_complement_sum b ~pos:0 ~len:total ~init) in
    Bytes.set_uint16_be b 16 csum;
    b

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

  let parse ~src_ip ~dst_ip b =
    let len = Bytes.length b in
    if len < base_header_len then Error "tcp: truncated header"
    else begin
      let data_off = (Char.code (Bytes.get b 12) lsr 4) * 4 in
      if data_off < base_header_len || data_off > len then Error "tcp: bad data offset"
      else begin
        let pseudo = Checksum.pseudo_header ~src:src_ip ~dst:dst_ip ~proto:6 ~length:len in
        let init = Checksum.ones_complement_sum pseudo ~pos:0 ~len:12 ~init:0 in
        if Checksum.ones_complement_sum b ~pos:0 ~len ~init <> 0xFFFF then
          Error "tcp: checksum mismatch"
        else begin
          let bits = Char.code (Bytes.get b 13) in
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
              src_port = Bytes.get_uint16_be b 0;
              dst_port = Bytes.get_uint16_be b 2;
              seq = Bytes.get_int32_be b 4;
              ack = Bytes.get_int32_be b 8;
              flags;
              window = Bytes.get_uint16_be b 14;
              mss = parse_mss b ~pos:base_header_len ~len:(data_off - base_header_len);
              payload = Bytes.sub b data_off (len - data_off);
            }
        end
      end
    end
end

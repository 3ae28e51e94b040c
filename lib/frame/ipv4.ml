(* IPv4 header codec (RFC 791). No options, no fragmentation support on
   the send side; fragmented packets are rejected on decode, which is also
   a deliberate safe-interface simplification (§3.2: eliminate error-prone
   protocol corners that the deployment does not need). *)

type protocol = Tcp | Unknown of int

let protocol_code = function Tcp -> 6 | Unknown c -> c
let protocol_of_code = function 6 -> Tcp | c -> Unknown c

type t = {
  mutable src : Addr.ipv4;
  mutable dst : Addr.ipv4;
  mutable protocol : protocol;
  mutable ttl : int;
  mutable payload_off : int;
  mutable payload_len : int;
}

let create () = { src = 0; dst = 0; protocol = Tcp; ttl = 0; payload_off = 0; payload_len = 0 }

let header_len = 20

let encode b ~off ~src ~dst ~protocol ~ttl ~payload_len =
  let total = header_len + payload_len in
  if total > 0xFFFF then invalid_arg "Ipv4.encode: packet too large";
  Bytes.set b off '\x45';  (* version 4, IHL 5 *)
  Bytes.set b (off + 1) '\000';
  Bytes.set_uint16_be b (off + 2) total;
  Bytes.set_uint16_be b (off + 4) 0;
  Bytes.set_uint16_be b (off + 6) 0x4000;  (* DF set, no fragments *)
  Bytes.set b (off + 8) (Char.chr (ttl land 0xFF));
  Bytes.set b (off + 9) (Char.chr (protocol_code protocol));
  Bytes.set_uint16_be b (off + 10) 0;
  Addr.set_u32 b (off + 12) src;
  Addr.set_u32 b (off + 16) dst;
  Bytes.set_uint16_be b (off + 10) (Checksum.compute b ~pos:off ~len:header_len)

let decode h b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Ipv4.decode: range out of bounds";
  if len < header_len then Error "ipv4: truncated header"
  else begin
    let vihl = Char.code (Bytes.get b off) in
    let version = vihl lsr 4 and ihl = (vihl land 0xF) * 4 in
    if version <> 4 then Error "ipv4: not version 4"
    else if ihl < header_len then Error "ipv4: bad IHL"
    else if ihl > len then Error "ipv4: IHL beyond packet"
    else begin
      let total = Bytes.get_uint16_be b (off + 2) in
      if total < ihl || total > len then Error "ipv4: bad total length"
      else if not (Checksum.verify b ~pos:off ~len:ihl) then Error "ipv4: header checksum mismatch"
      else begin
        let frag = Bytes.get_uint16_be b (off + 6) in
        let more_fragments = frag land 0x2000 <> 0 in
        let frag_offset = frag land 0x1FFF in
        if more_fragments || frag_offset <> 0 then Error "ipv4: fragmentation unsupported"
        else begin
          h.src <- Addr.get_u32 b (off + 12);
          h.dst <- Addr.get_u32 b (off + 16);
          h.protocol <- protocol_of_code (Char.code (Bytes.get b (off + 9)));
          h.ttl <- Char.code (Bytes.get b (off + 8));
          h.payload_off <- off + ihl;
          h.payload_len <- total - ihl;
          Ok ()
        end
      end
    end
  end

(* UDP codec (RFC 768), checksummed with the IPv4 pseudo-header. *)

type t = { src_port : int; dst_port : int; payload_off : int; payload_len : int }

let header_len = 8

let encode b ~off ~src_ip ~dst_ip ~src_port ~dst_port ~payload_len =
  let total = header_len + payload_len in
  if total > 0xFFFF then invalid_arg "Udp.encode: datagram too large";
  Bytes.set_uint16_be b off src_port;
  Bytes.set_uint16_be b (off + 2) dst_port;
  Bytes.set_uint16_be b (off + 4) total;
  Bytes.set_uint16_be b (off + 6) 0;
  let init = Checksum.pseudo_sum ~src:src_ip ~dst:dst_ip ~proto:17 ~length:total in
  let csum = Checksum.finish (Checksum.ones_complement_sum b ~pos:off ~len:total ~init) in
  (* All-zero checksums are transmitted as 0xFFFF per the RFC. *)
  Bytes.set_uint16_be b (off + 6) (if csum = 0 then 0xFFFF else csum)

let decode ~src_ip ~dst_ip b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Udp.decode: range out of bounds";
  if len < header_len then Error "udp: truncated header"
  else begin
    let total = Bytes.get_uint16_be b (off + 4) in
    if total < header_len || total > len then Error "udp: bad length"
    else begin
      let declared_csum = Bytes.get_uint16_be b (off + 6) in
      let ok =
        declared_csum = 0 (* checksum disabled by sender *)
        ||
        let init = Checksum.pseudo_sum ~src:src_ip ~dst:dst_ip ~proto:17 ~length:total in
        Checksum.ones_complement_sum b ~pos:off ~len:total ~init = 0xFFFF
      in
      if not ok then Error "udp: checksum mismatch"
      else
        Ok
          {
            src_port = Bytes.get_uint16_be b off;
            dst_port = Bytes.get_uint16_be b (off + 2);
            payload_off = off + header_len;
            payload_len = total - header_len;
          }
    end
  end

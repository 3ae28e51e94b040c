(* Ethernet II framing. 14-byte header; the simulated FCS is handled by
   the link layer when enabled, not here. The codec works in place: the
   encoder writes a header in front of a payload the caller already put
   in the buffer, and the decoder fills a header record its caller owns
   with the fields and where the payload lies. *)

type ethertype = Ipv4 | Arp | Unknown of int

let ethertype_code = function Ipv4 -> 0x0800 | Arp -> 0x0806 | Unknown c -> c

let ethertype_of_code = function 0x0800 -> Ipv4 | 0x0806 -> Arp | c -> Unknown c

type t = {
  mutable dst : Addr.mac;
  mutable src : Addr.mac;
  mutable ethertype : ethertype;
  mutable payload_off : int;
  mutable payload_len : int;
}

let create () = { dst = 0; src = 0; ethertype = Ipv4; payload_off = 0; payload_len = 0 }

let header_len = 14
let min_payload = 46  (* classic Ethernet minimum; we pad on encode *)

let frame_len ~payload_len = header_len + Int.max payload_len min_payload

let set_mac b off m =
  Bytes.set_uint16_be b off (m lsr 32);
  Addr.set_u32 b (off + 2) m

let get_mac b off = (Bytes.get_uint16_be b off lsl 32) lor Addr.get_u32 b (off + 2)

let encode b ~off ~dst ~src ~ethertype ~payload_len =
  let stop = off + frame_len ~payload_len in
  set_mac b off dst;
  set_mac b (off + 6) src;
  Bytes.set_uint16_be b (off + 12) (ethertype_code ethertype);
  let pad = off + header_len + payload_len in
  Bytes.fill b pad (stop - pad) '\000'

let decode h b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Ethernet.decode: range out of bounds";
  if len < header_len then Error "ethernet: frame shorter than header"
  else begin
    h.dst <- get_mac b off;
    h.src <- get_mac b (off + 6);
    h.ethertype <- ethertype_of_code (Bytes.get_uint16_be b (off + 12));
    h.payload_off <- off + header_len;
    h.payload_len <- len - header_len;
    Ok ()
  end

(* MAC and IPv4 address types shared by the codecs and the stack. *)

type mac = int  (* 48 bits in a native int *)

let mac_broadcast = 0xFFFFFFFFFFFF

let mac_of_octets a b c d e f =
  ((a land 0xFF) lsl 40) lor ((b land 0xFF) lsl 32) lor ((c land 0xFF) lsl 24)
  lor ((d land 0xFF) lsl 16) lor ((e land 0xFF) lsl 8) lor (f land 0xFF)

let mac_octet m i =
  if i < 0 || i > 5 then invalid_arg "Addr.mac_octet";
  (m lsr (8 * (5 - i))) land 0xFF

let pp_mac ppf m =
  Fmt.pf ppf "%02x:%02x:%02x:%02x:%02x:%02x" (mac_octet m 0) (mac_octet m 1)
    (mac_octet m 2) (mac_octet m 3) (mac_octet m 4) (mac_octet m 5)

let mac_to_string m = Fmt.str "%a" pp_mac m

type ipv4 = int  (* 32 bits in a native int *)

let ipv4_of_octets a b c d =
  ((a land 0xFF) lsl 24) lor ((b land 0xFF) lsl 16) lor ((c land 0xFF) lsl 8) lor (d land 0xFF)

let ipv4_octet ip i =
  if i < 0 || i > 3 then invalid_arg "Addr.ipv4_octet";
  (ip lsr (8 * (3 - i))) land 0xFF

let pp_ipv4 ppf ip =
  Fmt.pf ppf "%d.%d.%d.%d" (ipv4_octet ip 0) (ipv4_octet ip 1) (ipv4_octet ip 2) (ipv4_octet ip 3)

let ipv4_to_string ip = Fmt.str "%a" pp_ipv4 ip

let ipv4_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d) with
      | Some a, Some b, Some c, Some d
        when a >= 0 && a < 256 && b >= 0 && b < 256 && c >= 0 && c < 256 && d >= 0 && d < 256 ->
          Some (ipv4_of_octets a b c d)
      | _ -> None)
  | _ -> None

let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF
let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)

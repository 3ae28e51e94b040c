(* One-line human-readable frame decoding, for traces, demos and
   debugging: ethernet -> ipv4 -> tcp, falling back gracefully on
   anything unparseable (which, on a confidential wire, is most bytes). *)

let tcp_summary ~src_ip ~dst_ip b ~off ~len =
  let seg = Tcp_wire.create () in
  match Tcp_wire.decode seg ~src_ip ~dst_ip b ~off ~len with
  | Error e -> Printf.sprintf "tcp? (%s)" e
  | Ok () ->
      Fmt.str "%a:%d > %a:%d [%a] seq=%d ack=%d win=%d len=%d" Addr.pp_ipv4 src_ip
        seg.Tcp_wire.src_port Addr.pp_ipv4 dst_ip seg.Tcp_wire.dst_port Tcp_wire.pp_flags
        seg.Tcp_wire.flags seg.Tcp_wire.seq seg.Tcp_wire.ack seg.Tcp_wire.window
        seg.Tcp_wire.payload_len

let ip_summary_at b ~off ~len =
  let ip = Ipv4.create () in
  match Ipv4.decode ip b ~off ~len with
  | Error e -> Printf.sprintf "ipv4? (%s)" e
  | Ok () -> (
      let src_ip = ip.Ipv4.src and dst_ip = ip.Ipv4.dst in
      let off = ip.Ipv4.payload_off and len = ip.Ipv4.payload_len in
      match ip.Ipv4.protocol with
      | Ipv4.Tcp -> tcp_summary ~src_ip ~dst_ip b ~off ~len
      | Ipv4.Unknown p ->
          Fmt.str "%a > %a proto=%d len=%d" Addr.pp_ipv4 src_ip Addr.pp_ipv4 dst_ip p len)

let ip_summary packet = ip_summary_at packet ~off:0 ~len:(Bytes.length packet)

let frame_summary frame =
  let eth = Ethernet.create () in
  match Ethernet.decode eth frame ~off:0 ~len:(Bytes.length frame) with
  | Error _ -> Printf.sprintf "opaque %d B (not an ethernet frame)" (Bytes.length frame)
  | Ok () -> (
      match eth.Ethernet.ethertype with
      | Ethernet.Ipv4 -> ip_summary_at frame ~off:eth.Ethernet.payload_off ~len:eth.Ethernet.payload_len
      | Ethernet.Arp -> Fmt.str "%a > %a arp" Addr.pp_mac eth.Ethernet.src Addr.pp_mac eth.Ethernet.dst
      | Ethernet.Unknown t ->
          Fmt.str "%a > %a ethertype=0x%04x len=%d" Addr.pp_mac eth.Ethernet.src Addr.pp_mac
            eth.Ethernet.dst t eth.Ethernet.payload_len)

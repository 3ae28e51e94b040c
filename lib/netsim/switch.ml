(* Multi-port learning switch: connects several endpoints on the simulated
   network (e.g. one confidential unit serving several remote clients).

   Standard L2 semantics: learn the source MAC per ingress port, forward
   to the learned port for the destination MAC, flood unknown/broadcast
   destinations to every other port. Per-port egress delivery goes through
   the engine with the configured latency, keeping multi-party runs
   deterministic. As on a {!Link}, the frame's buffer changes owner; a
   flood gives each port its own copy. *)

type port = {
  pid : int;
  mutable rx : (bytes -> unit) option;
  mutable frames_in : int;
  mutable frames_out : int;
}

type t = {
  engine : Engine.t;
  latency_ns : int64;
  ports : port array;
  mac_table : (int, int) Hashtbl.t;  (* mac -> port id *)
  mutable flooded : int;
}

let create ?(latency_ns = 10_000L) ~ports engine =
  if ports < 2 then invalid_arg "Switch.create: need at least two ports";
  {
    engine;
    latency_ns;
    ports = Array.init ports (fun pid -> { pid; rx = None; frames_in = 0; frames_out = 0 });
    mac_table = Hashtbl.create 16;
    flooded = 0;
  }

let port_count t = Array.length t.ports

let attach t ~port rx =
  if port < 0 || port >= Array.length t.ports then invalid_arg "Switch.attach: bad port";
  t.ports.(port).rx <- Some rx

let frames_in t ~port = t.ports.(port).frames_in
let frames_out t ~port = t.ports.(port).frames_out
let flooded t = t.flooded

let learned_port t ~mac = Hashtbl.find_opt t.mac_table mac

(* Destination/source MACs straight from the frame header; a frame too
   short to carry them is dropped silently (as a cut-through switch
   would). *)
let dst_mac frame =
  let o i = Char.code (Bytes.get frame i) in
  ((o 0 lsl 40) lor (o 1 lsl 32) lor (o 2 lsl 24) lor (o 3 lsl 16) lor (o 4 lsl 8) lor o 5 : int)

let src_mac frame =
  let o i = Char.code (Bytes.get frame (6 + i)) in
  (o 0 lsl 40) lor (o 1 lsl 32) lor (o 2 lsl 24) lor (o 3 lsl 16) lor (o 4 lsl 8) lor o 5

let deliver t pid frame =
  let p = t.ports.(pid) in
  match p.rx with
  | None -> ()
  | Some rx ->
      p.frames_out <- p.frames_out + 1;
      Engine.schedule t.engine ~after:t.latency_ns (fun () -> rx frame)

let broadcast_mac = 0xFFFFFFFFFFFF

let ingress t ~port frame =
  if port < 0 || port >= Array.length t.ports then invalid_arg "Switch.ingress: bad port";
  if Bytes.length frame >= 12 then begin
    let p = t.ports.(port) in
    p.frames_in <- p.frames_in + 1;
    Hashtbl.replace t.mac_table (src_mac frame) port;
    let dst = dst_mac frame in
    match (dst = broadcast_mac, Hashtbl.find_opt t.mac_table dst) with
    | false, Some out when out <> port -> deliver t out frame
    | false, Some _ -> ()  (* destination on the ingress port: filter *)
    | true, _ | false, None ->
        t.flooded <- t.flooded + 1;
        Array.iter (fun q -> if q.pid <> port then deliver t q.pid (Bytes.copy frame)) t.ports
  end

(* A netif-shaped endpoint bound to one switch port: transmit goes into
   the switch; received frames queue for polling. *)
let endpoint t ~port =
  let inbox = Queue.create () in
  attach t ~port (fun frame -> Queue.add frame inbox);
  let transmit frame = ingress t ~port frame in
  let poll () = if Queue.is_empty inbox then None else Some (Queue.take inbox) in
  (transmit, poll)

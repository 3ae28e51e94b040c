(* TCP (RFC 9293 subset) — the in-TEE I/O stack's transport.

   Implemented: active/passive open, data transfer with cumulative ACKs,
   MSS negotiation via the SYN option, sliding-window flow control,
   out-of-order reassembly, retransmission with exponential backoff, fast
   retransmit on triple duplicate ACKs, slow start + congestion avoidance,
   graceful close through FIN states and TIME-WAIT, and RST handling.

   Deliberately omitted (documented simplifications): RTT estimation
   (fixed base RTO; the simulator's latencies are known), zero-window
   probes, SACK, urgent data, and simultaneous open. None of these affect
   the experiments, which exercise correctness-under-adversary and counted
   work, not TCP micro-tuning.

   The module is callback-free towards the driver: the stack calls [input]
   with parsed segments and [tick] with the polling clock — the paper's
   no-notifications principle end to end. *)

open Cio_util
open Cio_frame

let src = Logs.Src.create "cio.tcp" ~doc:"TCP state machine"

module Log = (val Logs.src_log src : Logs.LOG)

type state =
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed

let state_name = function
  | Listen -> "LISTEN"
  | Syn_sent -> "SYN-SENT"
  | Syn_received -> "SYN-RECEIVED"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN-WAIT-1"
  | Fin_wait_2 -> "FIN-WAIT-2"
  | Close_wait -> "CLOSE-WAIT"
  | Closing -> "CLOSING"
  | Last_ack -> "LAST-ACK"
  | Time_wait -> "TIME-WAIT"
  | Closed -> "CLOSED"

(* A sent segment awaiting its ACK. Its payload stays in the send queue,
   at [rseq]'s distance from the queue's front sequence number. *)
type retx_entry = {
  mutable rseq : int;
  mutable rlen : int;  (* payload bytes *)
  mutable rsyn : bool;
  mutable rfin : bool;
  mutable retries : int;
}

let retx_len e = e.rlen + (if e.rsyn then 1 else 0) + if e.rfin then 1 else 0

(* The retransmit queue, oldest first: a ring of entries that are
   rewritten segment after segment. It only allocates when it is full
   and doubles. *)
module Retxq = struct
  type t = { mutable slots : retx_entry array; mutable head : int; mutable len : int }

  let entry _ = { rseq = 0; rlen = 0; rsyn = false; rfin = false; retries = 0 }
  let create () = { slots = Array.init 4 entry; head = 0; len = 0 }
  let is_empty q = q.len = 0
  let clear q = q.len <- 0

  (* The oldest entry; the queue must not be empty. *)
  let peek q = q.slots.(q.head)

  let drop q =
    q.head <- (q.head + 1) land (Array.length q.slots - 1);
    q.len <- q.len - 1

  let grow q =
    let n = Array.length q.slots in
    q.slots <-
      Array.init (2 * n) (fun i -> if i < n then q.slots.((q.head + i) land (n - 1)) else entry i);
    q.head <- 0

  let push q ~seq ~len ~syn ~fin =
    if q.len = Array.length q.slots then grow q;
    let e = q.slots.((q.head + q.len) land (Array.length q.slots - 1)) in
    e.rseq <- seq;
    e.rlen <- len;
    e.rsyn <- syn;
    e.rfin <- fin;
    e.retries <- 0;
    q.len <- q.len + 1
end

(* Sequence numbers are native ints holding 32 bits; [no_seq] is none.
   Deadlines are ns on the [now] clock; [no_deadline] never comes. *)
let no_seq = -1
let no_deadline = max_int

type conn = {
  local_port : int;
  remote_ip : Addr.ipv4;
  remote_port : int;
  mutable state : state;
  (* send side *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_wnd : int;
  (* App data not yet acknowledged: the first [snd_sent] bytes are in
     flight (retransmits read them from here), the rest not yet
     segmented. The front byte has sequence number [snd_qseq]. *)
  snd_queue : Byteq.t;
  mutable snd_qseq : int;
  mutable snd_sent : int;
  retx : Retxq.t;
  mutable dup_acks : int;
  mutable fin_pending : bool;
  mutable fin_seq : int;  (* [no_seq] until the FIN is sent *)
  (* receive side *)
  mutable rcv_nxt : int;
  rcv_capacity : int;
  recv_buf : Byteq.t;   (* in-order stream awaiting the app *)
  mutable ooo : (int * bytes) list;  (* out-of-order stash, seq-sorted *)
  mutable fin_rcvd : bool;
  (* congestion control *)
  mutable mss : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  (* timers, in ns *)
  mutable rto_ns : int;
  mutable rtx_deadline : int;
  mutable timewait_deadline : int;
  mutable error : string option;
}

type listener = { lport : int; accept_queue : conn Queue.t }

type t = {
  local_ip : Addr.ipv4;
  send_segment : dst:Addr.ipv4 -> Tcp_wire.t -> Byteq.t -> unit;
  (* The header every outgoing segment is built in, then handed to
     [send_segment] for the call only. *)
  tx : Tcp_wire.t;
  now : unit -> int64;
  rng : Rng.t;
  meter : Cost.meter;
  model : Cost.model;
  (* Shared retry budget (overload plane): every retransmit — RTO or
     fast — spends from it, so a lossy episode cannot turn into a
     self-synchronised retry storm across connections. *)
  retry_budget : Cio_overload.Retry_budget.t option;
  mutable conns : conn list;
  mutable listeners : listener list;
  mutable next_ephemeral : int;
  mutable segments_in : int;
  mutable segments_out : int;
  mutable retransmits : int;
  mutable mss_clamps : int;
}

let m_segment_bytes =
  Cio_telemetry.Metrics.histogram Cio_telemetry.Metrics.default "tcp.segment_bytes"

(* Both retransmission paths (triple-dup-ack fast retransmit and RTO
   expiry) funnel through here. *)
let note_retransmit t =
  t.retransmits <- t.retransmits + 1;
  if Cio_telemetry.Trace.on () then
    Cio_telemetry.Trace.instant ~cat:Cio_telemetry.Kind.tcp "retransmit"

let default_mss = 1460

(* Floor for a peer's MSS: the segment every IPv4 host must accept (RFC
   9293 §3.7.1, RFC 6691). A forged 0 would leave [cwnd] at 0. *)
let min_mss = 536
let base_rto_ns = 200_000_000
let max_retries = 8
let backlog = 16  (* established connections a listener holds until accepted *)

let create ~model ~meter ?retry_budget ~local_ip ~send_segment ~now ~rng () =
  {
    local_ip;
    send_segment;
    tx = Tcp_wire.create ();
    now;
    rng;
    meter;
    model;
    retry_budget;
    conns = [];
    listeners = [];
    (* Randomised ephemeral-port start (deterministic per rng seed): a
       restarted stack must not march through the same port sequence as
       its dead predecessor, or its first SYN collides with the peer's
       lingering half of the old connection. *)
    next_ephemeral = 49152 + Rng.int rng 16_000;
    segments_in = 0;
    segments_out = 0;
    retransmits = 0;
    mss_clamps = 0;
  }

let segments_in t = t.segments_in
let segments_out t = t.segments_out
let retransmits t = t.retransmits
let mss_clamps t = t.mss_clamps

let conn_state c = c.state
let conn_error c = c.error
let conn_remote c = (c.remote_ip, c.remote_port)

let now_ns t = Int64.to_int (t.now ())

(* Every segment processed charges stack work: the cycles that live inside
   the TEE's I/O stack TCB. This is what the dual-boundary design pushes
   out of the core TCB. *)
let charge_stack t nbytes =
  Cost.charge t.meter Cost.Stack (300 + Cost.copy_cost t.model nbytes)

(* Send one segment of [conn], built in [t.tx]. Its [len] payload bytes,
   if any, are the send queue's bytes from sequence number [seq] on; the
   stack copies them once, straight into the frame. *)
let emit t conn ~len ~syn ~fin ~ack ~seq =
  let seg = t.tx in
  seg.Tcp_wire.src_port <- conn.local_port;
  seg.dst_port <- conn.remote_port;
  seg.seq <- seq;
  seg.ack <- (if ack then conn.rcv_nxt else 0);
  seg.flags <-
    (if syn then Tcp_wire.syn else 0)
    lor (if fin then Tcp_wire.fin else 0)
    lor (if ack then Tcp_wire.ack else 0)
    lor if len > 0 then Tcp_wire.psh else 0;
  seg.window <- Int.max 0 (conn.rcv_capacity - Byteq.length conn.recv_buf);
  seg.mss <- (if syn then default_mss else Tcp_wire.no_mss);
  seg.payload_off <- (if len = 0 then 0 else Tcp_wire.seq_diff seq conn.snd_qseq);
  seg.payload_len <- len;
  t.segments_out <- t.segments_out + 1;
  Cio_telemetry.Metrics.observe m_segment_bytes len;
  charge_stack t len;
  t.send_segment ~dst:conn.remote_ip seg conn.snd_queue

(* A bare ACK of everything received so far. *)
let send_ack t c = emit t c ~len:0 ~syn:false ~fin:false ~ack:true ~seq:c.snd_nxt

(* The oldest unacknowledged segment again, as it was first sent. *)
let resend t c e = emit t c ~len:e.rlen ~syn:e.rsyn ~fin:e.rfin ~ack:true ~seq:e.rseq

(* The payload store of segments that carry none. *)
let no_payload = Byteq.create 0

let send_rst t ~dst ~(to_seg : Tcp_wire.t) =
  (* RFC 9293 §3.10.7.1 reset generation for segments with no connection. *)
  let flags = to_seg.Tcp_wire.flags in
  if not (Tcp_wire.has flags Tcp_wire.rst) then begin
    let seg = t.tx in
    seg.Tcp_wire.src_port <- to_seg.Tcp_wire.dst_port;
    seg.dst_port <- to_seg.Tcp_wire.src_port;
    if Tcp_wire.has flags Tcp_wire.ack then begin
      seg.seq <- to_seg.Tcp_wire.ack;
      seg.ack <- 0;
      seg.flags <- Tcp_wire.rst
    end
    else begin
      seg.seq <- 0;
      seg.ack <-
        Tcp_wire.seq_add to_seg.Tcp_wire.seq
          (to_seg.Tcp_wire.payload_len
          + (if Tcp_wire.has flags Tcp_wire.syn then 1 else 0)
          + if Tcp_wire.has flags Tcp_wire.fin then 1 else 0);
      seg.flags <- Tcp_wire.rst lor Tcp_wire.ack
    end;
    seg.window <- 0;
    seg.mss <- Tcp_wire.no_mss;
    seg.payload_off <- 0;
    seg.payload_len <- 0;
    t.segments_out <- t.segments_out + 1;
    charge_stack t 0;
    t.send_segment ~dst seg no_payload
  end

let isn t = Int64.to_int (Rng.next_int64 t.rng) land 0xFFFFFFFF

let fresh_conn t ~local_port ~remote_ip ~remote_port ~state =
  let iss = isn t in
  let c =
    {
      local_port;
      remote_ip;
      remote_port;
      state;
      snd_una = iss;
      snd_nxt = iss;
      snd_wnd = 0;
      snd_queue = Byteq.create 4096;
      snd_qseq = Tcp_wire.seq_add iss 1;
      snd_sent = 0;
      retx = Retxq.create ();
      dup_acks = 0;
      fin_pending = false;
      fin_seq = no_seq;
      rcv_nxt = 0;
      rcv_capacity = 65535;
      recv_buf = Byteq.create 4096;
      ooo = [];
      fin_rcvd = false;
      mss = default_mss;
      cwnd = 2 * default_mss;
      ssthresh = 65535;
      rto_ns = base_rto_ns;
      rtx_deadline = no_deadline;
      timewait_deadline = no_deadline;
      error = None;
    }
  in
  t.conns <- c :: t.conns;
  c

let rec find_port listeners ~port =
  match listeners with
  | [] -> None
  | l :: rest -> if l.lport = port then Some l else find_port rest ~port

let find_listener t ~port = find_port t.listeners ~port

(* Entering CLOSED stops both timers: nothing is retransmitted and
   nothing waits out TIME-WAIT for a connection that is gone. The next
   [tick] drops it from the table; a holder of the record still reads
   its [error]. *)
let enter_closed c =
  c.state <- Closed;
  c.rtx_deadline <- no_deadline;
  c.timewait_deadline <- no_deadline

let record_retx t c ~seq ~len ~syn ~fin =
  Retxq.push c.retx ~seq ~len ~syn ~fin;
  if c.rtx_deadline = no_deadline then c.rtx_deadline <- now_ns t + c.rto_ns

let in_flight c = Tcp_wire.seq_diff c.snd_nxt c.snd_una

(* Push queued application data as segments while both flow-control and
   congestion windows allow. *)
let rec output t c =
  match c.state with
  | Established | Close_wait ->
      let window = Int.min c.snd_wnd c.cwnd in
      let usable = window - in_flight c in
      let queued = Byteq.length c.snd_queue - c.snd_sent in
      if queued > 0 && usable > 0 then begin
        let len = Int.min (Int.min queued usable) c.mss in
        let seq = c.snd_nxt in
        c.snd_nxt <- Tcp_wire.seq_add c.snd_nxt len;
        c.snd_sent <- c.snd_sent + len;
        record_retx t c ~seq ~len ~syn:false ~fin:false;
        emit t c ~len ~syn:false ~fin:false ~ack:true ~seq;
        output t c
      end
      else if queued = 0 && c.fin_pending && c.fin_seq = no_seq then begin
        (* All data segmented: send FIN. *)
        let seq = c.snd_nxt in
        c.snd_nxt <- Tcp_wire.seq_add c.snd_nxt 1;
        c.fin_seq <- seq;
        record_retx t c ~seq ~len:0 ~syn:false ~fin:true;
        emit t c ~len:0 ~syn:false ~fin:true ~ack:true ~seq;
        c.state <- (match c.state with Established -> Fin_wait_1 | _ -> Last_ack)
      end
  | _ -> ()

let connect t ?src_port ~dst ~dst_port () =
  let local_port =
    match src_port with
    | Some p -> p
    | None ->
        let p = t.next_ephemeral in
        t.next_ephemeral <- (if p >= 65535 then 49152 else p + 1);
        p
  in
  let c = fresh_conn t ~local_port ~remote_ip:dst ~remote_port:dst_port ~state:Syn_sent in
  let seq = c.snd_nxt in
  c.snd_nxt <- Tcp_wire.seq_add c.snd_nxt 1;
  record_retx t c ~seq ~len:0 ~syn:true ~fin:false;
  emit t c ~len:0 ~syn:true ~fin:false ~ack:false ~seq;
  c

let listen t ~port =
  match find_listener t ~port with
  | Some _ -> invalid_arg "Tcp.listen: port already bound"
  | None ->
      let l = { lport = port; accept_queue = Queue.create () } in
      t.listeners <- l :: t.listeners;
      l

let accept l = Queue.take_opt l.accept_queue

let send_sub _t c data ~off ~len =
  match c.state with
  | Established | Close_wait ->
      if c.fin_pending then 0
      else begin
        let n = Int.min (262144 - (Byteq.length c.snd_queue - c.snd_sent)) len in
        Byteq.add_subbytes c.snd_queue data off n;
        n
      end
  | _ -> 0

let send t c data = send_sub t c data ~off:0 ~len:(Bytes.length data)

let flush t c = output t c

let recv _t c ~max =
  let n = Int.min max (Byteq.length c.recv_buf) in
  if n = 0 then Bytes.empty else Byteq.take c.recv_buf n

let recv_into _t c q ~max =
  let n = Int.min max (Byteq.length c.recv_buf) in
  Byteq.transfer c.recv_buf q n;
  n

let recv_available c = Byteq.length c.recv_buf

let eof c = c.fin_rcvd && Byteq.length c.recv_buf = 0

let close t c =
  match c.state with
  | Established | Close_wait | Syn_received ->
      c.fin_pending <- true;
      output t c
  | Syn_sent | Listen -> enter_closed c
  | _ -> ()

(* Insert an out-of-order segment keeping the stash sorted and bounded. *)
let stash_ooo c seq payload =
  if List.length c.ooo < 64 then begin
    let rec ins = function
      | [] -> [ (seq, payload) ]
      | (s, p) :: rest as all ->
          if Tcp_wire.seq_lt seq s then (seq, payload) :: all
          else if s = seq then all  (* duplicate stash *)
          else (s, p) :: ins rest
    in
    c.ooo <- ins c.ooo
  end

(* After advancing rcv_nxt, pull any now-contiguous stashed segments. *)
let rec drain_ooo c =
  match c.ooo with
  | (s, p) :: rest when Tcp_wire.seq_leq s c.rcv_nxt ->
      c.ooo <- rest;
      let skip = Tcp_wire.seq_diff c.rcv_nxt s in
      if skip < Bytes.length p then begin
        let fresh = Bytes.length p - skip in
        Byteq.add_subbytes c.recv_buf p skip fresh;
        c.rcv_nxt <- Tcp_wire.seq_add c.rcv_nxt fresh
      end;
      drain_ooo c
  | _ -> ()

(* [buf] holds the segment's payload at [seg.payload_off]; whatever is
   kept past this call is copied out of it. *)
let deliver_payload c buf (seg : Tcp_wire.t) =
  let len = seg.payload_len in
  if len > 0 then begin
    if seg.seq = c.rcv_nxt then begin
      let room = c.rcv_capacity - Byteq.length c.recv_buf in
      let take = Int.min len room in
      Byteq.add_subbytes c.recv_buf buf seg.payload_off take;
      c.rcv_nxt <- Tcp_wire.seq_add c.rcv_nxt take;
      drain_ooo c
    end
    else if Tcp_wire.seq_lt c.rcv_nxt seg.seq then begin
      let dist = Tcp_wire.seq_diff seg.seq c.rcv_nxt in
      if dist < c.rcv_capacity then stash_ooo c seg.seq (Bytes.sub buf seg.payload_off len)
    end
    else begin
      (* Partially old segment: deliver the fresh tail. *)
      let skip = Tcp_wire.seq_diff c.rcv_nxt seg.seq in
      if skip < len then begin
        let room = c.rcv_capacity - Byteq.length c.recv_buf in
        let take = Int.min (len - skip) room in
        Byteq.add_subbytes c.recv_buf buf (seg.payload_off + skip) take;
        c.rcv_nxt <- Tcp_wire.seq_add c.rcv_nxt take;
        drain_ooo c
      end
    end
  end

(* Drop the segments [ack] covers from the front of the retransmit queue
   (they were queued in sequence order), then release the send-queue
   bytes in front of the oldest segment still unacknowledged. A partially
   acknowledged segment keeps all its bytes: it is resent whole. *)
let rec pop_acked q ack =
  if not (Retxq.is_empty q) then begin
    let e = Retxq.peek q in
    if Tcp_wire.seq_leq (Tcp_wire.seq_add e.rseq (retx_len e)) ack then begin
      Retxq.drop q;
      pop_acked q ack
    end
  end

let release_acked c ack =
  pop_acked c.retx ack;
  let front = if Retxq.is_empty c.retx then ack else (Retxq.peek c.retx).rseq in
  let n = Int.min (Tcp_wire.seq_diff front c.snd_qseq) c.snd_sent in
  Byteq.drop c.snd_queue n;
  c.snd_qseq <- Tcp_wire.seq_add c.snd_qseq n;
  c.snd_sent <- c.snd_sent - n

let process_ack t c (seg : Tcp_wire.t) =
  let ack = seg.Tcp_wire.ack in
  if Tcp_wire.seq_lt c.snd_una ack && Tcp_wire.seq_leq ack c.snd_nxt then begin
    (* New data acknowledged. *)
    let acked = Tcp_wire.seq_diff ack c.snd_una in
    c.snd_una <- ack;
    c.dup_acks <- 0;
    c.snd_wnd <- seg.Tcp_wire.window;
    release_acked c ack;
    (* Congestion control: slow start then additive increase. *)
    if c.cwnd < c.ssthresh then c.cwnd <- c.cwnd + Int.min acked c.mss
    else c.cwnd <- c.cwnd + Int.max 1 (c.mss * c.mss / c.cwnd);
    c.rto_ns <- base_rto_ns;
    c.rtx_deadline <- (if Retxq.is_empty c.retx then no_deadline else now_ns t + c.rto_ns);
    (* Forward progress pays back into the shared retry budget. *)
    (match t.retry_budget with
    | Some rb -> Cio_overload.Retry_budget.on_success rb
    | None -> ());
    (* FIN acked? *)
    if c.fin_seq <> no_seq && Tcp_wire.seq_lt c.fin_seq ack then begin
      match c.state with
      | Fin_wait_1 -> c.state <- Fin_wait_2
      | Closing ->
          c.state <- Time_wait;
          c.timewait_deadline <- now_ns t + (2 * c.rto_ns)
      | Last_ack -> enter_closed c
      | _ -> ()
    end;
    output t c
  end
  else if ack = c.snd_una && seg.Tcp_wire.payload_len = 0 && not (Retxq.is_empty c.retx) then begin
    (* Duplicate ACK. *)
    c.snd_wnd <- seg.Tcp_wire.window;
    c.dup_acks <- c.dup_acks + 1;
    if c.dup_acks = 3 then begin
      (* Fast retransmit also spends a retry token: when the budget is
         dry the cumulative-ACK / RTO machinery still recovers, just
         without the extra speculative send. *)
      let budget_ok =
        match t.retry_budget with
        | Some rb -> Cio_overload.Retry_budget.try_retry rb
        | None -> true
      in
      if budget_ok then begin
        let e = Retxq.peek c.retx in
        let flight = Int.max (in_flight c) c.mss in
        c.ssthresh <- Int.max (flight / 2) (2 * c.mss);
        c.cwnd <- c.ssthresh;
        e.retries <- e.retries + 1;
        note_retransmit t;
        resend t c e
      end
    end
  end
  else if ack = c.snd_una then c.snd_wnd <- seg.Tcp_wire.window

(* Take the peer's MSS option, if its SYN carried one, clamped to
   [min_mss, default_mss]; each raise to the floor is counted. *)
let take_mss t c (seg : Tcp_wire.t) =
  let mss = seg.Tcp_wire.mss in
  if mss <> Tcp_wire.no_mss && mss < min_mss then t.mss_clamps <- t.mss_clamps + 1;
  if mss <> Tcp_wire.no_mss then c.mss <- Int.max min_mss (Int.min mss default_mss)

let handle_synsent t c (seg : Tcp_wire.t) =
  let flags = seg.Tcp_wire.flags in
  if Tcp_wire.has flags Tcp_wire.rst then begin
    if Tcp_wire.has flags Tcp_wire.ack && seg.Tcp_wire.ack = c.snd_nxt then begin
      enter_closed c;
      c.error <- Some "connection refused"
    end
  end
  else if Tcp_wire.has flags Tcp_wire.syn && Tcp_wire.has flags Tcp_wire.ack then begin
    if seg.Tcp_wire.ack = c.snd_nxt then begin
      c.rcv_nxt <- Tcp_wire.seq_add seg.Tcp_wire.seq 1;
      c.snd_una <- seg.Tcp_wire.ack;
      c.snd_wnd <- seg.Tcp_wire.window;
      take_mss t c seg;
      c.cwnd <- 2 * c.mss;
      Retxq.clear c.retx;
      c.rtx_deadline <- no_deadline;
      c.state <- Established;
      send_ack t c;  (* ACK completing the handshake *)
      output t c
    end
    else send_rst t ~dst:c.remote_ip ~to_seg:seg
  end
  else if Tcp_wire.has flags Tcp_wire.ack && seg.Tcp_wire.ack <> c.snd_nxt then
    (* RFC 9293 §3.10.7.3: an unacceptable ACK in SYN-SENT gets a RST.
       This is the ghost-busting path: if our 4-tuple collides with a
       stale connection at the peer (e.g. after an I/O-stack restart),
       the peer's challenge ACK lands here, our RST kills the stale
       conn, and the retransmitted SYN then completes normally. *)
    send_rst t ~dst:c.remote_ip ~to_seg:seg

let seq_acceptable c (seg : Tcp_wire.t) =
  (* RFC 9293 §3.4 acceptability, with the simplification of a constant
     advertised window. *)
  let seg_len = seg.Tcp_wire.payload_len in
  let wnd = c.rcv_capacity in
  if seg_len = 0 then
    Tcp_wire.seq_leq c.rcv_nxt seg.Tcp_wire.seq
    || Tcp_wire.seq_lt (Tcp_wire.seq_add seg.Tcp_wire.seq (-1)) (Tcp_wire.seq_add c.rcv_nxt wnd)
  else
    Tcp_wire.seq_lt seg.Tcp_wire.seq (Tcp_wire.seq_add c.rcv_nxt wnd)
    && Tcp_wire.seq_lt c.rcv_nxt (Tcp_wire.seq_add seg.Tcp_wire.seq seg_len)
    || seg.Tcp_wire.seq = c.rcv_nxt

let handle_fin t c (seg : Tcp_wire.t) =
  let fin_seq = Tcp_wire.seq_add seg.Tcp_wire.seq seg.Tcp_wire.payload_len in
  if fin_seq = c.rcv_nxt then begin
    c.rcv_nxt <- Tcp_wire.seq_add c.rcv_nxt 1;
    c.fin_rcvd <- true;
    (match c.state with
    | Established -> c.state <- Close_wait
    | Fin_wait_1 -> c.state <- Closing
    | Fin_wait_2 ->
        c.state <- Time_wait;
        c.timewait_deadline <- now_ns t + (2 * c.rto_ns)
    | _ -> ());
    send_ack t c
  end

let handle_established t c buf (seg : Tcp_wire.t) =
  let flags = seg.Tcp_wire.flags in
  if not (seq_acceptable c seg) then
    (* Unacceptable: ACK and drop (protects against old/replayed data). *)
    send_ack t c
  else if Tcp_wire.has flags Tcp_wire.rst then begin
    enter_closed c;
    c.error <- Some "connection reset by peer"
  end
  else if Tcp_wire.has flags Tcp_wire.syn && Tcp_wire.seq_lt seg.Tcp_wire.seq c.rcv_nxt then
    (* Retransmitted handshake SYN: re-ACK. *)
    send_ack t c
  else if Tcp_wire.has flags Tcp_wire.syn then
    (* RFC 5961 §4: an in-window SYN on a synchronized connection gets a
       challenge ACK, never silence. If the SYN is a new incarnation of
       the 4-tuple, the sender answers the challenge with a RST and the
       stale connection dies. *)
    send_ack t c
  else begin
    if Tcp_wire.has flags Tcp_wire.ack then process_ack t c seg;
    let before = c.rcv_nxt in
    deliver_payload c buf seg;
    if Tcp_wire.has flags Tcp_wire.fin then handle_fin t c seg
    else if c.rcv_nxt <> before || seg.Tcp_wire.payload_len > 0 then
      (* Data arrived (in order or not): ACK immediately. *)
      send_ack t c
  end

let handle_synreceived t c l buf (seg : Tcp_wire.t) =
  let flags = seg.Tcp_wire.flags in
  if Tcp_wire.has flags Tcp_wire.rst then enter_closed c
  else if Tcp_wire.has flags Tcp_wire.ack && seg.Tcp_wire.ack = c.snd_nxt then begin
    c.snd_una <- seg.Tcp_wire.ack;
    c.snd_wnd <- seg.Tcp_wire.window;
    Retxq.clear c.retx;
    c.rtx_deadline <- no_deadline;
    c.state <- Established;
    (match l with
    | Some l when Queue.length l.accept_queue < backlog -> Queue.add c l.accept_queue
    | _ -> ());
    (* The completing ACK may already carry data. *)
    if seg.Tcp_wire.payload_len > 0 then handle_established t c buf seg
  end
  else if Tcp_wire.has flags Tcp_wire.syn && seg.Tcp_wire.payload_len = 0 then
    (* Retransmitted SYN: resend SYN-ACK. *)
    if not (Retxq.is_empty c.retx) then resend t c (Retxq.peek c.retx)

let input_conn t ~src c buf (seg : Tcp_wire.t) =
  match c.state with
  | Syn_sent -> handle_synsent t c seg
  | Syn_received -> handle_synreceived t c (find_listener t ~port:c.local_port) buf seg
  | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
      handle_established t c buf seg
  | Time_wait -> if Tcp_wire.has seg.Tcp_wire.flags Tcp_wire.fin then send_ack t c
  | Listen | Closed -> send_rst t ~dst:src ~to_seg:seg

(* A segment no connection claims: a new one if it is a SYN for a
   listener, a RST otherwise. *)
let input_unclaimed t ~src (seg : Tcp_wire.t) =
  let flags = seg.Tcp_wire.flags in
  match find_listener t ~port:seg.Tcp_wire.dst_port with
  | Some _ when Tcp_wire.has flags Tcp_wire.syn && not (Tcp_wire.has flags Tcp_wire.ack) ->
      let c =
        fresh_conn t ~local_port:seg.Tcp_wire.dst_port ~remote_ip:src
          ~remote_port:seg.Tcp_wire.src_port ~state:Syn_received
      in
      c.rcv_nxt <- Tcp_wire.seq_add seg.Tcp_wire.seq 1;
      take_mss t c seg;
      c.cwnd <- 2 * c.mss;
      c.snd_wnd <- seg.Tcp_wire.window;
      let seq = c.snd_nxt in
      c.snd_nxt <- Tcp_wire.seq_add c.snd_nxt 1;
      record_retx t c ~seq ~len:0 ~syn:true ~fin:false;
      emit t c ~len:0 ~syn:true ~fin:false ~ack:true ~seq
  | _ -> send_rst t ~dst:src ~to_seg:seg

(* Hand the segment to the live connection of its 4-tuple, walking the
   table without building an option. *)
let rec demux t ~src buf (seg : Tcp_wire.t) = function
  | [] -> input_unclaimed t ~src seg
  | c :: rest ->
      if
        c.local_port = seg.Tcp_wire.dst_port && c.remote_ip = src
        && c.remote_port = seg.Tcp_wire.src_port && c.state <> Closed && c.state <> Listen
      then input_conn t ~src c buf seg
      else demux t ~src buf seg rest

let input t ~src buf (seg : Tcp_wire.t) =
  t.segments_in <- t.segments_in + 1;
  charge_stack t seg.Tcp_wire.payload_len;
  demux t ~src buf seg t.conns

(* One connection's timers at [now]. *)
let tick_conn t now c =
  if c.timewait_deadline <= now then enter_closed c;
  if c.rtx_deadline <= now then begin
    if Retxq.is_empty c.retx then c.rtx_deadline <- no_deadline
    else begin
      let e = Retxq.peek c.retx in
      if e.retries >= max_retries then begin
        enter_closed c;
        c.error <- Some "retransmission limit exceeded"
      end
      else begin
        match t.retry_budget with
        | Some rb when not (Cio_overload.Retry_budget.try_retry rb) ->
            (* Budget dry: defer without spending a retry or touching
               cwnd. The decorrelated-jitter backoff paces the re-attempt
               so a fleet of starved connections cannot retry in
               lockstep. *)
            c.rtx_deadline <- now + Int64.to_int (Cio_overload.Retry_budget.backoff_ns rb)
        | budget ->
            e.retries <- e.retries + 1;
            (* Exponential backoff and multiplicative decrease. *)
            c.rto_ns <- 2 * c.rto_ns;
            c.ssthresh <- Int.max (in_flight c / 2) (2 * c.mss);
            c.cwnd <- c.mss;
            (* With a budget attached, pacing takes the worse of the
               per-connection RTO and the shared jittered backoff. *)
            let pace =
              match budget with
              | Some rb -> Int.max c.rto_ns (Int64.to_int (Cio_overload.Retry_budget.backoff_ns rb))
              | None -> c.rto_ns
            in
            c.rtx_deadline <- now + pace;
            note_retransmit t;
            if e.rsyn && c.state = Syn_sent then
              emit t c ~len:e.rlen ~syn:true ~fin:false ~ack:false ~seq:e.rseq
            else resend t c e
      end
    end
  end

let rec tick_all t now = function
  | [] -> ()
  | c :: rest ->
      tick_conn t now c;
      tick_all t now rest

let rec any_closed = function [] -> false | c :: rest -> c.state = Closed || any_closed rest

let tick t =
  tick_all t (now_ns t) t.conns;
  if any_closed t.conns then t.conns <- List.filter (fun c -> c.state <> Closed) t.conns

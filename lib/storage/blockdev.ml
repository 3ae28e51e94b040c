(* Block device over the safe ring: the storage instantiation of the
   paper's L2 boundary. The guest submits stateless requests; the host
   disk model answers with responses on the opposite ring. Host
   misbehaviour knobs mirror the network device's so the E9 attack rows
   line up with E4's. *)

open Cio_util
open Cio_mem
open Cio_cionet

let block_size = 4096

type misbehavior =
  | Corrupt_block        (* flip bits in the next read response *)
  | Lie_response_len     (* claim a huge response length *)
  | Wrong_lba            (* answer for a different block *)
  | Replay_response      (* deliver the previous response again *)

(* --- host side: the disk model --------------------------------------- *)

type disk = {
  data : bytes;              (* the host's backing store *)
  blocks : int;
  req_ring : Ring.t;         (* guest produces, host consumes *)
  resp_ring : Ring.t;        (* host produces, guest consumes *)
  host_pool : Bufpool.t;     (* consumed requests and staged responses *)
  req : bytes array;         (* the one-slot array requests are consumed into *)
  resp : bytes array;        (* the one-slot array responses are produced from *)
  faults : misbehavior Host_fault.queue;
  mutable malformed : int;
  log : int array;
      (* the last [log_capacity] requests, [lba * 2 + (1 for a write)],
         in a ring: everything a passive host learns even when the
         contents are sealed — the storage observability channel (E18) *)
  mutable logged : int;      (* requests logged since the last clear *)
}

(* --- guest side: the block client ------------------------------------ *)

type t = {
  region : Region.t;
  client_req : Ring.t;
  client_resp : Ring.t;
  disk : disk;
  meter : Cost.meter;
  pool : Bufpool.t;          (* staged requests and consumed responses *)
  req : bytes array;         (* the one-slot array requests are produced from *)
  resp : bytes array;        (* the one-slot array responses are consumed into *)
}

let positioning = Config.Inline { data_capacity = 8192 }

(* A power of two: a request's ring index is a mask of its count. *)
let log_capacity = 4096

let create ~name ~blocks () =
  let host_meter = Cost.meter () in
  let page = 4096 in
  let lay = Ring.layout ~page_size:page ~slots:16 positioning in
  let req_base = page in
  let resp_base = Cio_util.Bitops.align_up (req_base + lay.Ring.total) ~align:page in
  let total = Cio_util.Bitops.align_up (resp_base + lay.Ring.total) ~align:page in
  let region = Region.create ~model:Cost.default ~page_size:page ~prot:Region.Shared ~name total in
  let req_ring =
    Ring.create ~region ~base:req_base ~slots:16 ~positioning ~producer:Region.Guest
      ~strategy:Config.Copy_in ~host_meter
  in
  let resp_ring =
    Ring.create ~region ~base:resp_base ~slots:16 ~positioning ~producer:Region.Host
      ~strategy:Config.Copy_in ~host_meter
  in
  let disk =
    {
      data = Bytes.make (blocks * block_size) '\000';
      blocks;
      req_ring;
      resp_ring;
      host_pool = Bufpool.create ();
      req = [| Bytes.empty |];
      resp = [| Bytes.empty |];
      faults = Host_fault.queue ();
      malformed = 0;
      log = Array.make log_capacity 0;
      logged = 0;
    }
  in
  ( {
      region;
      client_req = req_ring;
      client_resp = resp_ring;
      disk;
      meter = Region.meter region;
      pool = Bufpool.create ();
      req = [| Bytes.empty |];
      resp = [| Bytes.empty |];
    },
    disk )

let disk_inject disk m = Host_fault.push disk.faults m

(* Take the oldest queued [m], if any: whether this hook point fires. An
   honest disk's empty queue builds no closure. *)
let take disk m =
  (not (Host_fault.is_empty disk.faults))
  && Host_fault.take disk.faults (fun q -> if q = m then Some () else None) <> None

let disk_access_log d =
  let n = Int.min d.logged log_capacity in
  List.init n (fun i ->
      let e = d.log.((d.logged - n + i) land (log_capacity - 1)) in
      ((if e land 1 = 0 then Block_wire.Read else Block_wire.Write), e lsr 1))

let disk_clear_log d = d.logged <- 0

let log disk op lba =
  disk.log.(disk.logged land (log_capacity - 1)) <-
    (lba lsl 1) lor (match op with Block_wire.Read -> 0 | Block_wire.Write -> 1);
  disk.logged <- disk.logged + 1

(* A response staged in a host pool buffer: header, [len] payload bytes
   for the caller to fill. *)
let stage disk status ~lba ~len =
  let b = Bufpool.acquire disk.host_pool (Block_wire.header_len + len) in
  Block_wire.put_header b ~code:(Block_wire.status_code status) ~lba ~len;
  b

(* Serve one consumed request in place: the write payload goes straight
   from the consumed buffer to the backing store, a read's block straight
   from the backing store into the staged response. *)
let serve disk raw =
  let len = Block_wire.payload_len raw in
  match if len < 0 then None else Block_wire.op_of_code (Block_wire.code raw) with
  | None -> disk.malformed <- disk.malformed + 1
  | Some op ->
      let lba = Block_wire.lba raw in
      log disk op lba;
      let resp =
        if lba >= disk.blocks then stage disk Block_wire.Error_ ~lba ~len:0
        else begin
          match op with
          | Block_wire.Read ->
              (* Wrong_lba: serve a *different* block's content while
                 claiming it is the requested one. *)
              let src_lba = if take disk Wrong_lba then (lba + 1) mod disk.blocks else lba in
              let resp = stage disk Block_wire.Ok_ ~lba ~len:block_size in
              Bytes.blit disk.data (src_lba * block_size) resp Block_wire.header_len block_size;
              if take disk Corrupt_block then begin
                (* Flip a mid-payload byte: real bit rot / malice lands
                   in data, not padding. *)
                let i = Block_wire.header_len + 64 in
                Bytes.set resp i (Char.chr (Char.code (Bytes.get resp i) lxor 0xFF))
              end;
              resp
          | Block_wire.Write ->
              Bytes.blit raw Block_wire.header_len disk.data (lba * block_size) (Int.min len block_size);
              stage disk Block_wire.Ok_ ~lba ~len:0
        end
      in
      (* Lie_response_len: corrupt the embedded length field upward. *)
      if take disk Lie_response_len then Bytes.set_int32_le resp 5 (Int32.of_int 1_000_000);
      disk.resp.(0) <- resp;
      ignore (Ring.try_produce_burst disk.resp_ring disk.resp ~len:1);
      (* Replay: deliver the response just sent a second time. The ring
         copies it, so it is produced again before its buffer goes back
         to the pool, and no copy of it is kept for later. *)
      if take disk Replay_response then
        ignore (Ring.try_produce_burst disk.resp_ring disk.resp ~len:1);
      Bufpool.recycle disk.host_pool resp

(* Run the host disk: consume requests, produce responses. *)
let rec disk_poll disk =
  if Ring.try_consume_burst_into ~pool:disk.host_pool disk.req_ring disk.req ~max:1 > 0 then begin
    let raw = disk.req.(0) in
    serve disk raw;
    Bufpool.recycle disk.host_pool raw;
    disk_poll disk
  end

(* Guest-side API: synchronous, driving the host inline (the storage
   experiments do not need the network engine). One request is staged in
   a pool buffer, copied once onto the ring, and its response is copied
   once off the ring into another pool buffer and used in place. *)

(* [transact]'s and [read_into]'s failures: code [-i - 1] is
   [failures.(i)]. *)
let ring_full = -1
let no_response = -2
let malformed = -3
let device_error = -4
let no_payload = -5

let failures =
  [| "request ring full"; "no response"; "malformed response"; "device error"; "unexpected write response" |]

let failure code = failures.(-code - 1)

(* Submit one request whose payload is [len] bytes of [src] at [off], run
   the disk and consume one response into [t.resp.(0)]. Returns the
   payload length of an ok response, held there until [release], or a
   failure code < 0 with nothing held. *)
let transact t ~op ~lba src ~off ~len =
  Cost.charge t.meter Cost.Ring 0;
  let req = Bufpool.acquire t.pool (Block_wire.header_len + len) in
  Block_wire.put_header req ~code:(Block_wire.op_code op) ~lba ~len;
  Bytes.blit src off req Block_wire.header_len len;
  t.req.(0) <- req;
  let sent = Ring.try_produce_burst t.client_req t.req ~len:1 = 1 in
  Bufpool.recycle t.pool req;
  if not sent then ring_full
  else begin
    disk_poll t.disk;
    if Ring.try_consume_burst_into ~pool:t.pool t.client_resp t.resp ~max:1 = 0 then no_response
    else begin
      let raw = t.resp.(0) in
      let plen = Block_wire.payload_len raw in
      let n =
        match if plen < 0 then None else Block_wire.status_of_code (Block_wire.code raw) with
        | None -> malformed
        | Some Block_wire.Error_ -> device_error
        | Some Block_wire.Ok_ -> plen
      in
      if n < 0 then Bufpool.recycle t.pool raw;
      n
    end
  end

let release t = Bufpool.recycle t.pool t.resp.(0)
let read t ~lba = transact t ~op:Block_wire.Read ~lba Bytes.empty ~off:0 ~len:0

let read_into t ~lba dst ~off ~len =
  let n = read t ~lba in
  if n < 0 then n
  else begin
    let placed = if n = 0 then no_payload else Int.min n len in
    if placed > 0 then Bytes.blit t.resp.(0) Block_wire.header_len dst off placed;
    release t;
    placed
  end

let write_sub t ~lba src ~off ~len =
  if len > block_size then Error "payload larger than block"
  else begin
    let n = transact t ~op:Block_wire.Write ~lba src ~off ~len in
    if n < 0 then Error (failure n)
    else begin
      release t;
      if n = 0 then Ok () else Error "unexpected data response"
    end
  end

let meter t = t.meter
let blocks t = t.disk.blocks

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
  mutable misbehaviors : misbehavior list;
  mutable malformed : int;
  mutable access_log : (Block_wire.op * int) list;
      (* newest first: everything a passive host learns even when the
         contents are sealed — the storage observability channel (E18) *)
}

(* --- guest side: the block client ------------------------------------ *)

type t = {
  region : Region.t;
  client_req : Ring.t;
  client_resp : Ring.t;
  disk : disk;
  meter : Cost.meter;
  pool : Bufpool.t;          (* staged requests and consumed responses *)
}

let positioning = Config.Inline { data_capacity = 8192 }

let create ?(model = Cost.default) ?meter ~name ~blocks () =
  let host_meter = Cost.meter () in
  let page = 4096 in
  let lay = Ring.layout ~page_size:page ~slots:16 positioning in
  let req_base = page in
  let resp_base = Cio_util.Bitops.align_up (req_base + lay.Ring.total) ~align:page in
  let total = Cio_util.Bitops.align_up (resp_base + lay.Ring.total) ~align:page in
  let region = Region.create ?meter ~model ~page_size:page ~prot:Region.Shared ~name total in
  let req_ring =
    Ring.create ~region ~base:req_base ~slots:16 ~positioning ~producer:Region.Guest ~host_meter
  in
  let resp_ring =
    Ring.create ~region ~base:resp_base ~slots:16 ~positioning ~producer:Region.Host ~host_meter
  in
  let disk =
    {
      data = Bytes.make (blocks * block_size) '\000';
      blocks;
      req_ring;
      resp_ring;
      host_pool = Bufpool.create ();
      misbehaviors = [];
      malformed = 0;
      access_log = [];
    }
  in
  ( {
      region;
      client_req = req_ring;
      client_resp = resp_ring;
      disk;
      meter = Region.meter region;
      pool = Bufpool.create ();
    },
    disk )

let disk_inject disk m = disk.misbehaviors <- disk.misbehaviors @ [ m ]

let take disk pred =
  let rec go acc = function
    | [] -> None
    | m :: rest when pred m ->
        disk.misbehaviors <- List.rev_append acc rest;
        Some m
    | m :: rest -> go (m :: acc) rest
  in
  go [] disk.misbehaviors

let disk_access_log d = List.rev d.access_log
let disk_clear_log d = d.access_log <- []

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
      disk.access_log <- (op, lba) :: disk.access_log;
      let resp =
        if lba >= disk.blocks then stage disk Block_wire.Error_ ~lba ~len:0
        else begin
          match op with
          | Block_wire.Read ->
              (* Wrong_lba: serve a *different* block's content while
                 claiming it is the requested one. *)
              let src_lba =
                match take disk (function Wrong_lba -> true | _ -> false) with
                | Some _ -> (lba + 1) mod disk.blocks
                | None -> lba
              in
              let resp = stage disk Block_wire.Ok_ ~lba ~len:block_size in
              Bytes.blit disk.data (src_lba * block_size) resp Block_wire.header_len block_size;
              (match take disk (function Corrupt_block -> true | _ -> false) with
              | Some _ ->
                  (* Flip a mid-payload byte: real bit rot / malice lands
                     in data, not padding. *)
                  let i = Block_wire.header_len + 64 in
                  Bytes.set resp i (Char.chr (Char.code (Bytes.get resp i) lxor 0xFF))
              | None -> ());
              resp
          | Block_wire.Write ->
              Bytes.blit raw Block_wire.header_len disk.data (lba * block_size) (Int.min len block_size);
              stage disk Block_wire.Ok_ ~lba ~len:0
        end
      in
      (match take disk (function Lie_response_len -> true | _ -> false) with
      | Some _ ->
          (* Corrupt the embedded length field upward. *)
          Bytes.set_int32_le resp 5 (Int32.of_int 1_000_000)
      | None -> ());
      ignore (Ring.try_produce disk.resp_ring resp);
      (* Replay: deliver the response just sent a second time. The ring
         copies it, so it is produced again before its buffer goes back
         to the pool, and nothing keeps it afterwards. *)
      (match take disk (function Replay_response -> true | _ -> false) with
      | Some _ -> ignore (Ring.try_produce disk.resp_ring resp)
      | None -> ());
      Bufpool.recycle disk.host_pool resp

(* Run the host disk: consume requests, produce responses. *)
let rec disk_poll disk =
  match Ring.try_consume ~pool:disk.host_pool disk.req_ring with
  | None -> ()
  | Some raw ->
      serve disk raw;
      Bufpool.recycle disk.host_pool raw;
      disk_poll disk

(* Guest-side API: synchronous, driving the host inline (the storage
   experiments do not need the network engine). One request is staged in
   a pool buffer, copied once onto the ring, and its response is copied
   once off the ring into another pool buffer and used in place. *)

type 'a reply = Data of 'a | Write_ok | Failed of string
type result = bytes reply

let no_payload _ _ = ()

let transact t ~op ~lba ~len fill use =
  Cost.charge t.meter Cost.Ring 0;
  let req = Bufpool.acquire t.pool (Block_wire.header_len + len) in
  Block_wire.put_header req ~code:(Block_wire.op_code op) ~lba ~len;
  fill req Block_wire.header_len;
  let sent = Ring.try_produce t.client_req req in
  Bufpool.recycle t.pool req;
  if not sent then Failed "request ring full"
  else begin
    disk_poll t.disk;
    match Ring.try_consume ~pool:t.pool t.client_resp with
    | None -> Failed "no response"
    | Some raw ->
        let plen = Block_wire.payload_len raw in
        let r =
          if plen < 0 then Failed "malformed response"
          else begin
            match Block_wire.status_of_code (Block_wire.code raw) with
            | None -> Failed "malformed response"
            | Some Block_wire.Error_ -> Failed "device error"
            | Some Block_wire.Ok_ ->
                if plen = 0 then Write_ok else Data (use raw Block_wire.header_len plen)
          end
        in
        Bufpool.recycle t.pool raw;
        r
  end

let read_with t ~lba use = transact t ~op:Block_wire.Read ~lba ~len:0 no_payload use

let write_from t ~lba ~len fill =
  if len > block_size then Failed "payload larger than block"
  else transact t ~op:Block_wire.Write ~lba ~len fill Bytes.sub

let write_sub t ~lba src ~off ~len =
  write_from t ~lba ~len (fun dst dst_off -> Bytes.blit src off dst dst_off len)

let read_block t ~lba = read_with t ~lba Bytes.sub
let write_block t ~lba payload = write_sub t ~lba payload ~off:0 ~len:(Bytes.length payload)

let meter t = t.meter
let blocks t = t.disk.blocks

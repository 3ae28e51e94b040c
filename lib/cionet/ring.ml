(* The safe ring — §3.2's host↔TEE data path, safe by construction.

   Design principles implemented here, mapped to the paper's bullets:

   - *Stateless interface*: a slot is a self-contained transaction
     { state, len, info, tag }. There are no cross-slot or cross-operation
     dependencies, no sequence numbers to resynchronise, and no error
     path: a malformed slot is skipped and counted, never "handled".
   - *Copy as a first-class citizen*: the consumer performs exactly one
     early copy (or one revocation) per message; nothing else ever touches
     shared bytes twice.
   - *No notifications*: both sides poll. (A stateless, idempotent
     doorbell can be layered on top for E11; nothing in the ring needs it.)
   - *Zero (re-)negotiation*: geometry, positioning and the consume
     strategy (copy or revocation) are fixed at construction; there is
     no control plane in the ring at all.
   - *Safe ring buffer & shared data area*: every size is a power of two.
     Slot cursors, pool indices and indirect buffer offsets taken from
     shared memory are confined by masking — a wild value aliases a valid
     slot instead of escaping the arena. Untrusted lengths are clamped to
     the slot capacity. The header is fetched exactly once per operation
     (double fetches are impossible by construction, so no copy is needed
     to defend against them).

   One ring carries one direction: the producer side is fixed at creation
   (guest for TX, host for RX). Each side's cursor and allocator state is
   private to that side; the only shared control word is [state]. *)

open Cio_util
open Cio_mem
module Trace = Cio_telemetry.Trace
module Metrics = Cio_telemetry.Metrics
module Kind = Cio_telemetry.Kind

(* Each ring's [counters] own its counts. The three confinement counts
   are also summed across every ring in the process, because the
   repository benchmark reads them by name; handles are resolved once at
   module init, so the per-event cost is a single unboxed increment. *)
let m_len_clamped = Metrics.counter Metrics.default "ring.len_clamped"
let m_index_masked = Metrics.counter Metrics.default "ring.index_masked"
let m_state_skipped = Metrics.counter Metrics.default "ring.state_skipped"

let state_empty = 0
let state_full = 1

let header_bytes = 16

type layout = {
  total : int;          (* bytes needed from base *)
  hdr_off : int;        (* headers, slots * 16 *)
  desc_off : int;       (* indirect descriptors (0 width otherwise) *)
  desc_count : int;
  data_off : int;       (* payload arena, power-of-two sized and aligned *)
  data_size : int;
  unit_size : int;      (* payload bytes per slot / pool slot *)
  units : int;          (* number of payload units in the arena *)
}

let layout ~page_size ~slots (positioning : Config.positioning) =
  if not (Bitops.is_power_of_two slots) then invalid_arg "Ring.layout: slots must be a power of two";
  let unit_size, units, desc_count =
    match positioning with
    | Config.Inline { data_capacity } -> (data_capacity, slots, 0)
    | Config.Pool { pool_slots; pool_slot_size } -> (pool_slot_size, pool_slots, 0)
    | Config.Indirect { desc_count; pool_slots; pool_slot_size } ->
        (pool_slot_size, pool_slots, desc_count)
  in
  if not (Bitops.is_power_of_two unit_size) then
    invalid_arg "Ring.layout: payload unit size must be a power of two";
  if not (Bitops.is_power_of_two units) then
    invalid_arg "Ring.layout: payload unit count must be a power of two";
  if desc_count <> 0 && not (Bitops.is_power_of_two desc_count) then
    invalid_arg "Ring.layout: descriptor count must be a power of two";
  let hdr_off = 0 in
  let desc_off = hdr_off + (slots * header_bytes) in
  let data_size = units * unit_size in
  (* The arena is aligned to its own (power-of-two) size so that offset
     confinement is a single AND, and to the page size so revocation can
     operate on whole payload pages. *)
  let align = max page_size data_size in
  let data_off = Bitops.align_up (desc_off + (desc_count * 8)) ~align in
  { total = data_off + data_size; hdr_off; desc_off; desc_count; data_off; data_size; unit_size; units }

type counters = {
  mutable produced : int;
  mutable consumed : int;
  mutable full_misses : int;   (* produce found no EMPTY slot *)
  mutable empty_polls : int;   (* consume found no FULL slot *)
  mutable len_clamped : int;   (* untrusted length confined *)
  mutable index_masked : int;  (* untrusted index/offset confined *)
  mutable state_skipped : int; (* malformed state word skipped *)
}

type t = {
  region : Region.t;
  base : int;
  slots : int;
  lay : layout;
  positioning : Config.positioning;
  producer : Region.actor;
  guest_meter : Cost.meter;
  host_meter : Cost.meter;
  model : Cost.model;
  mutable prod_next : int;  (* producer-private cursor *)
  mutable cons_next : int;  (* consumer-private cursor *)
  (* Producer-private payload allocator (pool / indirect modes): unit
     bindings per ring slot, reclaimed lazily when the slot is reused. *)
  free_units : int Queue.t;
  bindings : int option array;
  mutable next_desc : int;
  mutable next_tag : int;
  counters : counters;
  hdr : bytes;  (* [read_header]'s fetch buffer: private, decoded at once *)
  desc : bytes;  (* [locate]'s descriptor fetch buffer, likewise *)
  strategy : Config.rx_strategy;  (* how the consumer takes a message *)
  lens : int array;  (* a revocation run's scanned lengths, per slot *)
  mutable payload_off : int;
      (* [validate]'s confined payload offset: a field, not a returned
         pair, so validating a slot allocates nothing *)
}

let create ~region ~base ~slots ~positioning ~producer ~strategy ~host_meter =
  let lay = layout ~page_size:(Region.page_size region) ~slots positioning in
  if base + lay.total > Region.size region then invalid_arg "Ring.create: does not fit in region";
  if base mod max (Region.page_size region) 1 <> 0 then
    invalid_arg "Ring.create: base must be page-aligned";
  (match (strategy, producer, positioning) with
  | Config.Copy_in, _, _ | Config.Revoke, Region.Host, Config.Inline _ -> ()
  | Config.Revoke, Region.Guest, _ -> invalid_arg "Ring.create: revocation needs a guest consumer"
  | Config.Revoke, _, _ -> invalid_arg "Ring.create: revocation needs inline positioning");
  let t =
    {
      region;
      base;
      slots;
      lay;
      positioning;
      producer;
      guest_meter = Region.meter region;
      host_meter;
      model = Region.model region;
      prod_next = 0;
      cons_next = 0;
      free_units = Queue.create ();
      bindings = Array.make slots None;
      next_desc = 0;
      next_tag = 0;
      counters =
        {
          produced = 0;
          consumed = 0;
          full_misses = 0;
          empty_polls = 0;
          len_clamped = 0;
          index_masked = 0;
          state_skipped = 0;
        };
      hdr = Bytes.create header_bytes;
      desc = Bytes.create 8;
      strategy;
      lens = Array.make slots 0;
      payload_off = 0;
    }
  in
  (match positioning with
  | Config.Inline _ -> ()
  | Config.Pool _ | Config.Indirect _ ->
      for u = 0 to lay.units - 1 do
        Queue.add u t.free_units
      done);
  t

let counters t = t.counters
let slots t = t.slots

let region t = t.region
let header_offset t slot = t.base + t.lay.hdr_off + (header_bytes * (slot land (t.slots - 1)))
let capacity t = t.lay.unit_size
let consumer t = match t.producer with Region.Guest -> Region.Host | Region.Host -> Region.Guest
let data_arena t = (t.base + t.lay.data_off, t.lay.data_size)

let meter_of t (actor : Region.actor) =
  match actor with Region.Guest -> t.guest_meter | Region.Host -> t.host_meter

let charge t actor cat cycles = Cost.charge (meter_of t actor) cat cycles

let hdr_off t slot = t.base + t.lay.hdr_off + (header_bytes * (slot land (t.slots - 1)))
let unit_off t u = t.base + t.lay.data_off + (t.lay.unit_size * (u land (t.lay.units - 1)))
let desc_off t d = t.base + t.lay.desc_off + (8 * (d land (max t.lay.desc_count 1 - 1)))

(* Cost of one ring word/header access. The first access of a crossing
   pays [ring_op] in full (cache miss + cursor bookkeeping); subsequent
   slots of the same burst touch adjacent lines and pay [ring_burst_op].
   Only ring words amortize — validation checks and payload copies are
   per-message work and always charge in full. *)
let ring_word_cost t ~amortized =
  if amortized then t.model.Cost.ring_burst_op else t.model.Cost.ring_op

(* Word [i] of a private fetch buffer. In the last header fetch: 0 state,
   1 len, 2 info, 3 tag; in the last descriptor fetch: 0 offset, 1 len. *)
let word b i = Int32.to_int (Bytes.get_int32_le b (4 * i)) land 0xFFFFFFFF
let hdr_word t i = word t.hdr i

(* Single-fetch header read: one 16-byte pull into the ring's private
   fetch buffer; returns the state word, and the caller decodes len and
   info with [hdr_word] before the next fetch reuses the buffer. The
   buffer is not shared memory, so a host racing through the read hook
   cannot change what is decoded. *)
let read_header ~amortized t actor slot =
  charge t actor Cost.Ring (ring_word_cost t ~amortized);
  (match actor with
  | Region.Guest -> Region.guest_read_into t.region ~off:(hdr_off t slot) t.hdr
  | Region.Host -> Region.host_read_into t.region ~off:(hdr_off t slot) t.hdr);
  hdr_word t 0

let write_word ~amortized t actor ~off v =
  charge t actor Cost.Ring (ring_word_cost t ~amortized);
  Region.write_u32 t.region actor ~off v

let write_payload t actor ~off payload =
  match actor with
  | Region.Guest -> Region.copy_out t.region ~off payload
  | Region.Host ->
      Region.host_write t.region ~off payload;
      charge t actor Cost.Dma (Cost.dma_cost t.model (Bytes.length payload))

(* The consumer's one early copy, into a buffer recycled from [pool]. *)
let read_payload pool t actor ~off ~len =
  let b = Bufpool.acquire pool len in
  (match actor with
  | Region.Guest -> Region.copy_in_into t.region ~off b
  | Region.Host ->
      Region.host_read_into t.region ~off b;
      charge t actor Cost.Dma (Cost.dma_cost t.model len));
  b

(* Reclaim the payload unit a ring slot was last bound to (producer
   private bookkeeping; the "free" control message is the slot's return
   to EMPTY, which the producer observes on reuse). *)
let reclaim_binding t slot =
  match t.bindings.(slot land (t.slots - 1)) with
  | None -> ()
  | Some u ->
      t.bindings.(slot land (t.slots - 1)) <- None;
      Queue.add u t.free_units

let produce_one t ~amortized payload =
  let actor = t.producer in
  let len = Bytes.length payload in
  if len > t.lay.unit_size then invalid_arg "Ring.try_produce_burst: payload larger than slot capacity";
  if len = 0 then invalid_arg "Ring.try_produce_burst: messages carry at least one byte";
  let slot = t.prod_next land (t.slots - 1) in
  if read_header ~amortized t actor slot <> state_empty then begin
    t.counters.full_misses <- t.counters.full_misses + 1;
    false
  end
  else begin
    reclaim_binding t slot;
    let info =
      match t.positioning with
      | Config.Inline _ ->
          write_payload t actor ~off:(unit_off t slot) payload;
          0
      | Config.Pool _ -> (
          match Queue.take_opt t.free_units with
          | None ->
              t.counters.full_misses <- t.counters.full_misses + 1;
              -1
          | Some u ->
              t.bindings.(slot) <- Some u;
              write_payload t actor ~off:(unit_off t u) payload;
              u)
      | Config.Indirect _ -> (
          match Queue.take_opt t.free_units with
          | None ->
              t.counters.full_misses <- t.counters.full_misses + 1;
              -1
          | Some u ->
              t.bindings.(slot) <- Some u;
              write_payload t actor ~off:(unit_off t u) payload;
              let d = t.next_desc land (t.lay.desc_count - 1) in
              t.next_desc <- t.next_desc + 1;
              write_word t ~amortized actor ~off:(desc_off t d) (unit_off t u - (t.base + t.lay.data_off));
              write_word t ~amortized actor ~off:(desc_off t d + 4) len;
              d)
    in
    if info < 0 then false
    else begin
      (* Publish: len and info first, state FULL last. *)
      write_word t ~amortized actor ~off:(hdr_off t slot + 4) len;
      write_word t ~amortized actor ~off:(hdr_off t slot + 8) info;
      write_word t ~amortized actor ~off:(hdr_off t slot + 12) (t.next_tag land 0xFFFFFFFF);
      t.next_tag <- t.next_tag + 1;
      write_word t ~amortized actor ~off:(hdr_off t slot) state_full;
      t.prod_next <- t.prod_next + 1;
      t.counters.produced <- t.counters.produced + 1;
      if Trace.on () then Trace.instant ~arg:len ~cat:Kind.l2 "slot-produce";
      true
    end
  end

(* Burst produce: up to [len] messages in one crossing.
   The first slot pays full ring cost; the rest amortize. Stops at the
   first full slot (or exhausted pool) and returns how many went in —
   per-slot publish order is unchanged, so the safety argument is exactly
   the single-slot one, N times over. *)
let rec produce_from t frames len i =
  if i < len && produce_one t ~amortized:(i > 0) frames.(i) then
    produce_from t frames len (i + 1)
  else i

let try_produce_burst t frames ~len = produce_from t frames len 0

(* Confine an untrusted length to the payload unit, counting every clamp.
   One check charge per call, clamped or not. *)
let clamp t actor len =
  charge t actor Cost.Check t.model.Cost.check;
  if len > t.lay.unit_size then begin
    t.counters.len_clamped <- t.counters.len_clamped + 1;
    Metrics.inc m_len_clamped;
    if Trace.on () then Trace.instant ~arg:len ~cat:Kind.l2 "slot-clamp";
    t.lay.unit_size
  end
  else len

(* Skip a malformed slot: count it, return it to EMPTY and advance the
   cursor. There is no error path — the skip is the whole handling. *)
let skip ~amortized ~arg t actor slot =
  t.counters.state_skipped <- t.counters.state_skipped + 1;
  Metrics.inc m_state_skipped;
  if Trace.on () then Trace.instant ?arg ~cat:Kind.l2 "slot-skip";
  write_word t ~amortized actor ~off:(hdr_off t slot) state_empty;
  t.cons_next <- t.cons_next + 1

(* Resolve the payload offset for a consumed slot, confining every
   untrusted value by masking. An indirect slot's descriptor is left in
   [t.desc]. *)
let locate ~amortized t actor slot ~info =
  match t.positioning with
  | Config.Inline _ -> unit_off t slot
  | Config.Pool _ ->
      charge t actor Cost.Check t.model.Cost.check;
      let u = info land (t.lay.units - 1) in
      if u <> info then begin
        t.counters.index_masked <- t.counters.index_masked + 1;
        Metrics.inc m_index_masked;
        if Trace.on () then Trace.instant ~arg:info ~cat:Kind.l2 "slot-mask"
      end;
      unit_off t u
  | Config.Indirect _ ->
      charge t actor Cost.Check t.model.Cost.check;
      let d = info land (t.lay.desc_count - 1) in
      if d <> info then begin
        t.counters.index_masked <- t.counters.index_masked + 1;
        Metrics.inc m_index_masked;
        if Trace.on () then Trace.instant ~arg:info ~cat:Kind.l2 "slot-mask"
      end;
      (* Single fetch of the descriptor. *)
      charge t actor Cost.Ring (ring_word_cost t ~amortized);
      (match actor with
      | Region.Guest -> Region.guest_read_into t.region ~off:(desc_off t d) t.desc
      | Region.Host -> Region.host_read_into t.region ~off:(desc_off t d) t.desc);
      let raw_off = word t.desc 0 in
      (* Confine the buffer offset: wrap into the arena, align down to a
         unit boundary. A hostile offset aliases a valid unit. *)
      charge t actor Cost.Check t.model.Cost.check;
      let confined = Bitops.align_down (raw_off land (t.lay.data_size - 1)) ~align:t.lay.unit_size in
      if confined <> raw_off then begin
        t.counters.index_masked <- t.counters.index_masked + 1;
        Metrics.inc m_index_masked;
        if Trace.on () then Trace.instant ~arg:raw_off ~cat:Kind.l2 "slot-mask"
      end;
      t.base + t.lay.data_off + confined

(* Validate the consumer's next slot: fetch its header once and confine
   what it claims. Returns the payload length, with the payload's offset
   left in [t.payload_off]; [-1] when the slot is EMPTY (an empty poll);
   [0] when it was malformed and has been skipped — progress, but no
   message. A message carries at least one byte by contract, so a
   zero-length claim is malformed like any other (no error path). *)
let validate ~amortized t actor slot =
  let state = read_header ~amortized t actor slot in
  let len = hdr_word t 1 and info = hdr_word t 2 in
  if state = state_empty then begin
    t.counters.empty_polls <- t.counters.empty_polls + 1;
    -1
  end
  else if state <> state_full then begin
    skip ~amortized ~arg:(Some state) t actor slot;
    0
  end
  else begin
    t.payload_off <- locate ~amortized t actor slot ~info;
    let claimed =
      match t.positioning with Config.Indirect _ -> Int.min len (word t.desc 1) | _ -> len
    in
    let len = clamp t actor claimed in
    if len = 0 then skip ~amortized ~arg:None t actor slot;
    len
  end

(* Copy consume: drain up to [max] messages in one crossing, one early
   copy each, into [dst.(n)] on. Malformed slots inside the batch are
   skipped-and-counted — each skip writes EMPTY and advances, so the loop
   terminates — without poisoning the rest of the batch. Only the first
   header access of the crossing pays full ring cost. *)
let rec copy_into pool t dst ~max ~ops n =
  if n >= max then n
  else begin
    let actor = consumer t and amortized = ops > 0 in
    let slot = t.cons_next land (t.slots - 1) in
    let len = validate ~amortized t actor slot in
    if len < 0 then n
    else if len = 0 then copy_into pool t dst ~max ~ops:(ops + 1) n
    else begin
      dst.(n) <- read_payload pool t actor ~off:t.payload_off ~len;
      write_word t ~amortized actor ~off:(hdr_off t slot) state_empty;
      t.cons_next <- t.cons_next + 1;
      t.counters.consumed <- t.counters.consumed + 1;
      if Trace.on () then Trace.instant ~arg:len ~cat:Kind.l2 "slot-consume";
      copy_into pool t dst ~max ~ops:(ops + 1) (n + 1)
    end
  end

(* Revocation consume (guest consumer, Inline positioning): one
   unshare/share pair (one shootdown each way) covers a contiguous run of
   FULL slots, read while the host is locked out, then re-shared with
   every slot marked EMPTY before the call returns. The run never wraps
   the ring — a wrap would split the span — and never consumes past a
   non-FULL or zero-length slot: that slot is left in place for the next
   call, which skips it at the head of its run with the usual
   accounting. *)

(* Extend the run from slot [k] of [start]'s up to [limit] slots, noting
   each length in [t.lens]; returns the run length. Every scanned header
   pays its check; only a FULL slot, the only kind that can join the run,
   has its length clamped. *)
let rec scan_run t start ~limit k =
  if k >= limit then k
  else begin
    let len =
      if read_header ~amortized:true t Region.Guest (start + k) = state_full then
        clamp t Region.Guest (hdr_word t 1)
      else begin
        charge t Region.Guest Cost.Check t.model.Cost.check;
        0
      end
    in
    if len = 0 then k
    else begin
      t.lens.(k) <- len;
      scan_run t start ~limit (k + 1)
    end
  end

let revoke_into pool t dst ~max =
  let start = t.cons_next land (t.slots - 1) in
  let len = validate ~amortized:false t Region.Guest start in
  if len <= 0 then 0
  else begin
    t.lens.(0) <- len;
    let k = scan_run t start ~limit:(Int.min max (t.slots - start)) 1 in
    let span_off = unit_off t start and span_len = k * t.lay.unit_size in
    Region.unshare_range t.region ~off:span_off ~len:span_len;
    for i = 0 to k - 1 do
      let b = Bufpool.acquire pool t.lens.(i) in
      Region.guest_read_into t.region ~off:(unit_off t (start + i)) b;
      dst.(i) <- b
    done;
    t.cons_next <- t.cons_next + k;
    t.counters.consumed <- t.counters.consumed + k;
    if Trace.on () then Trace.instant ~arg:k ~cat:Kind.l2 "slot-revoke-burst";
    Region.share_range t.region ~off:span_off ~len:span_len;
    for i = 0 to k - 1 do
      write_word t ~amortized:(i > 0) Region.Guest ~off:(hdr_off t (start + i)) state_empty
    done;
    k
  end

let try_consume_burst_into ~pool t dst ~max =
  if max > Array.length dst then invalid_arg "Ring.try_consume_burst_into: max exceeds the array";
  match t.strategy with
  | Config.Copy_in -> copy_into pool t dst ~max ~ops:0 0
  | Config.Revoke -> if max <= 0 then 0 else revoke_into pool t dst ~max

(* Reusable buffer pool for the allocation-free datapath.

   OCaml [bytes] cannot be sub-viewed, and the netif contract hands out
   exact-length frames, so "reuse" here means recycling buffers keyed by
   their exact length. Steady-state traffic repeats a small set of frame
   sizes (data segments, ACKs, padded frames), so after warm-up every
   acquire is served from a free list and the pool performs zero
   allocations per frame — the property the zero-alloc echo test pins.

   Retention is capped per power-of-two size class (the shape a real
   implementation would use for its slab sizes), so a burst of unusual
   lengths cannot pin unbounded memory: beyond the cap a recycled buffer
   is simply dropped for the GC.

   The hit path allocates nothing either: each exact length owns a stack
   of free buffers in an array (grown only while the class cap allows
   more), and each such bucket holds its size class's counter. *)

open Cio_util

let m_dropped = Cio_telemetry.Metrics.counter Cio_telemetry.Metrics.default "bufpool.dropped"
let m_retained_high =
  Cio_telemetry.Metrics.gauge Cio_telemetry.Metrics.default "bufpool.retained_high"

(* Process-wide high watermark of retained buffers in any single pool:
   the number that says how much memory the recycling scheme can pin at
   worst, which is what capacity planning wants from the gauge. *)
let global_high = ref 0

type stats = {
  mutable fresh : int;     (* acquires that had to allocate *)
  mutable reused : int;    (* acquires served from a free list *)
  mutable recycled : int;  (* buffers accepted back *)
  mutable dropped : int;   (* returns rejected by the class cap *)
}

(* Free buffers of one exact length: the first [count] of [free]. *)
type bucket = {
  in_class : int ref;           (* retained in this size class, shared *)
  mutable free : bytes array;
  mutable count : int;
}

(* Lengths key the tables: a monomorphic hash and equality, so a lookup
   never calls the generic compare or hash. *)
module Len_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash n = n land max_int
end)

type t = {
  buckets : bucket Len_tbl.t;                    (* exact length -> free buffers *)
  class_retained : int ref Len_tbl.t;            (* pow2 class -> retained count *)
  cap : int;                                     (* max retained per size class *)
  mutable retained_count : int;                  (* free buffers held right now *)
  stats : stats;
}

let create ?(cap = 256) () =
  if cap < 0 then invalid_arg "Bufpool.create: cap must be non-negative";
  {
    buckets = Len_tbl.create 16;
    class_retained = Len_tbl.create 16;
    cap;
    retained_count = 0;
    stats = { fresh = 0; reused = 0; recycled = 0; dropped = 0 };
  }

let stats t = t.stats

let retained t =
  Len_tbl.fold (fun _ r acc -> acc + !r) t.class_retained 0

let acquire t len =
  if len <= 0 then invalid_arg "Bufpool.acquire: length must be positive";
  match Len_tbl.find t.buckets len with
  | q when q.count > 0 ->
      t.stats.reused <- t.stats.reused + 1;
      decr q.in_class;
      t.retained_count <- t.retained_count - 1;
      q.count <- q.count - 1;
      let b = q.free.(q.count) in
      q.free.(q.count) <- Bytes.empty;
      b
  | _ | (exception Not_found) ->
      t.stats.fresh <- t.stats.fresh + 1;
      Bytes.create len

let bucket t len =
  match Len_tbl.find t.buckets len with
  | q -> q
  | exception Not_found ->
      let cls = Bitops.next_power_of_two len in
      let in_class =
        match Len_tbl.find t.class_retained cls with
        | r -> r
        | exception Not_found ->
            let r = ref 0 in
            Len_tbl.add t.class_retained cls r;
            r
      in
      let q = { in_class; free = [||]; count = 0 } in
      Len_tbl.add t.buckets len q;
      q

(* Push [b] on [q], doubling the array when it is full. *)
let push q b =
  if q.count = Array.length q.free then begin
    let free = Array.make (Int.max 4 (2 * q.count)) Bytes.empty in
    Array.blit q.free 0 free 0 q.count;
    q.free <- free
  end;
  q.free.(q.count) <- b;
  q.count <- q.count + 1

(* Checking mode: a recycle of a buffer that is already free in this
   pool would hand it to two owners, so it fails; the buffer kept is
   poisoned, so an owner still reading it reads garbage. Off, it is one
   branch per recycle. *)
let checking = ref false
let set_checking on = checking := on

let poison = '\xDB'

let audit q b =
  for i = 0 to q.count - 1 do
    if q.free.(i) == b then invalid_arg "Bufpool.recycle: buffer is already free in this pool"
  done;
  Bytes.fill b 0 (Bytes.length b) poison

let recycle t b =
  let len = Bytes.length b in
  if len > 0 then begin
    let q = bucket t len in
    if !checking then audit q b;
    if !(q.in_class) >= t.cap then begin
      t.stats.dropped <- t.stats.dropped + 1;
      Cio_telemetry.Metrics.inc m_dropped
    end
    else begin
      incr q.in_class;
      t.stats.recycled <- t.stats.recycled + 1;
      t.retained_count <- t.retained_count + 1;
      if t.retained_count > !global_high then begin
        global_high := t.retained_count;
        Cio_telemetry.Metrics.set m_retained_high t.retained_count
      end;
      push q b
    end
  end

(* Simulated TEE memory: a byte region with per-page protection.

   This module is the root substitution of the reproduction (DESIGN.md §1):
   it stands in for SEV/TDX/SGX memory protection. Pages are either
   [Private] (guest-only; host access faults, modelling memory encryption +
   RMP/EPT protection) or [Shared] (host-visible bounce/ring memory). Every
   access is logged so experiments can (a) detect double fetches from
   shared memory, (b) measure what the host could observe, and (c) verify
   that a driver never dereferences unvalidated host-controlled state. *)

open Cio_util
module Metrics = Cio_telemetry.Metrics

type actor = Guest | Host

let actor_name = function Guest -> "guest" | Host -> "host"

type prot = Private | Shared

type fault =
  | Host_access_private of { off : int; len : int; write : bool }
  | Out_of_bounds of { actor : actor; off : int; len : int; write : bool }

let pp_fault ppf = function
  | Host_access_private { off; len; write } ->
      Fmt.pf ppf "host %s of private memory [%d..%d)"
        (if write then "write" else "read")
        off (off + len)
  | Out_of_bounds { actor; off; len; write } ->
      Fmt.pf ppf "%s out-of-bounds %s [%d..%d)" (actor_name actor)
        (if write then "write" else "read")
        off (off + len)

exception Fault of fault

type event =
  | Read of { actor : actor; off : int; len : int }
  | Write of { actor : actor; off : int; len : int }
  | Share_page of int
  | Unshare_page of int

type t = {
  name : string;
  data : bytes;
  page_size : int;
  prot : prot array;
  mutable private_pages : int;
      (* pages of [prot] that are [Private]: when 0, every in-bounds
         range is shared and [range_shared] needs no page scan *)
  meter : Cost.meter;
  model : Cost.model;
  mutable log : event list;  (* newest first *)
  mutable log_enabled : bool;
  mutable txn : (int * int * string) list option;
      (* open double-fetch transaction: guest reads of shared memory as
         (off, len, content-at-read-time) *)
  mutable host_write_hook : (off:int -> len:int -> unit) option;
  mutable guest_read_hook : (off:int -> len:int -> unit) option;
      (* fired after each guest read of shared memory: lets the attack
         harness model a host racing the guest between two fetches *)
  mutable san : san option;
      (* opt-in double-fetch sanitizer: when on, every guest fetch of
         shared memory is checked against the epoch's earlier fetches *)
}

(* Runtime double-fetch sanitizer state. Unlike a [txn] (opened by the
   *code under test* around one logical parse), the sanitizer is armed
   from the outside — by a test or fault campaign — and watches code that
   never asked to be watched. An epoch is one logical parse (one poll);
   re-reading an index across epochs is legitimate, re-reading inside one
   is the Fig. 3/4 double fetch. *)
and san = {
  mutable s_fetches : (int * int * string) list;  (* off, len, snapshot *)
  mutable s_double : int;
  mutable s_mutated : int;
  mutable s_epochs : int;
}

let create ?(page_size = 4096) ?(prot = Shared) ?(model = Cost.default) ?meter ~name size =
  if size <= 0 then invalid_arg "Region.create: size must be positive";
  if not (Bitops.is_power_of_two page_size) then
    invalid_arg "Region.create: page size must be a power of two";
  let pages = (size + page_size - 1) / page_size in
  {
    name;
    data = Bytes.make size '\000';
    page_size;
    prot = Array.make pages prot;
    private_pages = (match prot with Private -> pages | Shared -> 0);
    meter = (match meter with Some m -> m | None -> Cost.meter ());
    model;
    log = [];
    log_enabled = true;
    txn = None;
    host_write_hook = None;
    guest_read_hook = None;
    san = None;
  }

let name t = t.name
let size t = Bytes.length t.data
let page_size t = t.page_size
let page_count t = Array.length t.prot
let meter t = t.meter
let model t = t.model

let set_logging t flag = t.log_enabled <- flag
let clear_log t = t.log <- []
let events t = List.rev t.log

let log t e = if t.log_enabled then t.log <- e :: t.log

let page_of t off = off / t.page_size

let prot_of_page t page =
  if page < 0 || page >= Array.length t.prot then
    invalid_arg "Region.prot_of_page: bad page";
  t.prot.(page)

let range_ok t off len = off >= 0 && len >= 0 && off + len <= Bytes.length t.data

(* A range is host-accessible only if every page it touches is shared.
   With no private page at all (the common case: a region nothing has
   revoked from) an in-bounds range is shared without a page scan. *)
let range_shared t off len =
  (t.private_pages = 0 && range_ok t off len)
  ||
  let first = page_of t off and last = page_of t (off + len - 1) in
  let rec go p = p > last || (t.prot.(p) = Shared && go (p + 1)) in
  len = 0 || go first

let check_access t actor off len ~write =
  if not (range_ok t off len) then
    raise (Fault (Out_of_bounds { actor; off; len; write }));
  match actor with
  | Guest -> ()
  | Host ->
      if len > 0 && not (range_shared t off len) then
        raise (Fault (Host_access_private { off; len; write }))

let ranges_overlap (o1, l1) (o2, l2) = o1 < o2 + l2 && o2 < o1 + l1

(* Sanitizer capture: compare this fetch against every earlier fetch of
   an overlapping shared range in the current epoch, then record it. Runs
   *before* [guest_read_hook] fires, so a hook-modelled host race is seen
   by the second fetch's comparison, mirroring real time order. Costs a
   single [None] branch when the sanitizer is off. *)
let san_note t ~off ~len =
  match t.san with
  | None -> ()
  | Some s ->
      let snap = Bytes.sub_string t.data off len in
      List.iter
        (fun (off2, len2, snap2) ->
          if ranges_overlap (off, len) (off2, len2) then begin
            s.s_double <- s.s_double + 1;
            Metrics.inc (Metrics.counter Metrics.default "mem.sanitizer.double_fetch");
            let lo = max off off2 and hi = min (off + len) (off2 + len2) in
            let w1 = String.sub snap (lo - off) (hi - lo) in
            let w2 = String.sub snap2 (lo - off2) (hi - lo) in
            if not (String.equal w1 w2) then begin
              s.s_mutated <- s.s_mutated + 1;
              Metrics.inc
                (Metrics.counter Metrics.default "mem.sanitizer.double_fetch_mutated")
            end
          end)
        s.s_fetches;
      s.s_fetches <- (off, len, snap) :: s.s_fetches

(* Every read runs the same steps in the same order: bounds/protection
   check, log, transaction and sanitizer capture, the read itself (the
   caller's), then the guest read hook. [read_begin] does the steps before
   the read and returns whether the hook is due; [read_end] fires it —
   after the value is captured, so the *next* fetch observes any mutation
   the hook performs. *)
let read_begin t actor ~off ~len =
  check_access t actor off len ~write:false;
  log t (Read { actor; off; len });
  match actor with
  | Host -> false
  | Guest ->
      let shared = len > 0 && range_shared t off len in
      if shared then begin
        (match t.txn with
        | Some reads -> t.txn <- Some ((off, len, Bytes.sub_string t.data off len) :: reads)
        | None -> ());
        san_note t ~off ~len
      end;
      shared

let read_end t ~off ~len hook_due =
  match t.guest_read_hook with
  | Some hook when hook_due -> hook ~off ~len
  | _ -> ()

let read t actor ~off ~len =
  let due = read_begin t actor ~off ~len in
  let result = Bytes.sub t.data off len in
  read_end t ~off ~len due;
  result

(* Blit-into variant of [read]: fills a caller-provided buffer instead of
   allocating — the allocation-free consume path. *)
let read_into t actor ~off dst =
  let len = Bytes.length dst in
  let due = read_begin t actor ~off ~len in
  Bytes.blit t.data off dst 0 len;
  read_end t ~off ~len due

(* Writes: check, log, the write itself, then the host write hook. *)
let write_begin t actor ~off ~len =
  check_access t actor off len ~write:true;
  log t (Write { actor; off; len })

let write_end t actor ~off ~len =
  match (actor, t.host_write_hook) with
  | Host, Some hook -> hook ~off ~len
  | _ -> ()

let write t actor ~off src =
  let len = Bytes.length src in
  write_begin t actor ~off ~len;
  Bytes.blit src 0 t.data off len;
  write_end t actor ~off ~len

let guest_read t ~off ~len = read t Guest ~off ~len
let guest_write t ~off src = write t Guest ~off src
let host_read t ~off ~len = read t Host ~off ~len
let host_write t ~off src = write t Host ~off src
let guest_read_into t ~off dst = read_into t Guest ~off dst
let host_read_into t ~off dst = read_into t Host ~off dst

(* Integer accessors used by the ring/descriptor layers. All are
   little-endian, matching the virtio wire format. Each goes through the
   same steps as [read]/[write] but touches the region bytes directly,
   with no intermediate buffer. *)

let read_u8 t actor ~off =
  let due = read_begin t actor ~off ~len:1 in
  let v = Bytes.get_uint8 t.data off in
  read_end t ~off ~len:1 due;
  v

let read_u16 t actor ~off =
  let due = read_begin t actor ~off ~len:2 in
  let v = Bytes.get_uint16_le t.data off in
  read_end t ~off ~len:2 due;
  v

let read_u32 t actor ~off =
  let due = read_begin t actor ~off ~len:4 in
  let v = Int32.to_int (Bytes.get_int32_le t.data off) land 0xFFFFFFFF in
  read_end t ~off ~len:4 due;
  v

let read_u64 t actor ~off =
  let due = read_begin t actor ~off ~len:8 in
  let v = Bytes.get_int64_le t.data off in
  read_end t ~off ~len:8 due;
  v

let write_u8 t actor ~off v =
  write_begin t actor ~off ~len:1;
  Bytes.set_uint8 t.data off (v land 0xFF);
  write_end t actor ~off ~len:1

let write_u16 t actor ~off v =
  write_begin t actor ~off ~len:2;
  Bytes.set_uint16_le t.data off (v land 0xFFFF);
  write_end t actor ~off ~len:2

let write_u32 t actor ~off v =
  write_begin t actor ~off ~len:4;
  Bytes.set_int32_le t.data off (Int32.of_int (v land 0xFFFFFFFF));
  write_end t actor ~off ~len:4

let write_u64 t actor ~off v =
  write_begin t actor ~off ~len:8;
  Bytes.set_int64_le t.data off v;
  write_end t actor ~off ~len:8

(* Page sharing / revocation. Unsharing is the paper's §3.2 "revocation"
   primitive: the guest reclaims a page from the host on the fly instead of
   copying out of it. *)

let share_page t page =
  if page < 0 || page >= Array.length t.prot then
    invalid_arg "Region.share_page: bad page";
  if t.prot.(page) <> Shared then begin
    t.prot.(page) <- Shared;
    t.private_pages <- t.private_pages - 1;
    Cost.charge t.meter Cost.Share t.model.Cost.page_share;
    log t (Share_page page)
  end

let unshare_page t page =
  if page < 0 || page >= Array.length t.prot then
    invalid_arg "Region.unshare_page: bad page";
  if t.prot.(page) <> Private then begin
    t.prot.(page) <- Private;
    t.private_pages <- t.private_pages + 1;
    Cost.charge t.meter Cost.Unshare t.model.Cost.page_unshare;
    log t (Unshare_page page)
  end

(* Range variants are batched: one shootdown/hypercall covers the whole
   range, so the first page pays full cost and the rest pay only PTE
   work. The transition itself is identical to the per-page calls. *)

let share_range t ~off ~len =
  if len > 0 then begin
    let first = page_of t off and last = page_of t (off + len - 1) in
    let changed = ref 0 in
    for p = first to last do
      if t.prot.(p) <> Shared then begin
        t.prot.(p) <- Shared;
        t.private_pages <- t.private_pages - 1;
        incr changed;
        log t (Share_page p)
      end
    done;
    if !changed > 0 then
      Cost.charge t.meter Cost.Share
        (t.model.Cost.page_share + ((!changed - 1) * t.model.Cost.page_share_extra))
  end

let unshare_range t ~off ~len =
  if len > 0 then begin
    let first = page_of t off and last = page_of t (off + len - 1) in
    let changed = ref 0 in
    for p = first to last do
      if t.prot.(p) <> Private then begin
        t.prot.(p) <- Private;
        t.private_pages <- t.private_pages + 1;
        incr changed;
        log t (Unshare_page p)
      end
    done;
    if !changed > 0 then
      Cost.charge t.meter Cost.Unshare
        (t.model.Cost.page_unshare + ((!changed - 1) * t.model.Cost.page_unshare_extra))
  end

(* Metered copies: the canonical "copy as a first-class citizen" operation.
   [copy_in] pulls shared bytes into a private buffer (and is the safe
   answer to double fetches); [copy_out] publishes private bytes. *)

let copy_in t ~off ~len =
  let b = guest_read t ~off ~len in
  Cost.charge t.meter Cost.Copy (Cost.copy_cost t.model len);
  b

let copy_in_into t ~off dst =
  guest_read_into t ~off dst;
  Cost.charge t.meter Cost.Copy (Cost.copy_cost t.model (Bytes.length dst))

let copy_out t ~off src =
  guest_write t ~off src;
  Cost.charge t.meter Cost.Copy (Cost.copy_cost t.model (Bytes.length src))

(* Double-fetch transactions. The guest brackets one logical parse of
   host-writable data with [begin_txn]/[end_txn]; any shared range read
   twice inside the bracket is a double-fetch hazard, and it is *exploited*
   if the bytes changed between the two reads (i.e. the host raced the
   parser). *)

type hazard = { off : int; len : int; mutated : bool }

let begin_txn t =
  if t.txn <> None then invalid_arg "Region.begin_txn: transaction already open";
  t.txn <- Some []

let end_txn t =
  match t.txn with
  | None -> invalid_arg "Region.end_txn: no open transaction"
  | Some reads ->
      t.txn <- None;
      let reads = List.rev reads in
      let hazards = ref [] in
      let rec scan = function
        | [] -> ()
        | (off, len, content) :: rest ->
            List.iter
              (fun (off2, len2, content2) ->
                if ranges_overlap (off, len) (off2, len2) then begin
                  let mutated =
                    (* compare the overlapping window of the two reads *)
                    let lo = max off off2 and hi = min (off + len) (off2 + len2) in
                    let w1 = String.sub content (lo - off) (hi - lo) in
                    let w2 = String.sub content2 (lo - off2) (hi - lo) in
                    not (String.equal w1 w2)
                  in
                  hazards := { off = off2; len = len2; mutated } :: !hazards
                end)
              rest;
            scan rest
      in
      scan reads;
      List.rev !hazards

let with_txn t f =
  begin_txn t;
  match f () with
  | v ->
      let hazards = end_txn t in
      (v, hazards)
  | exception e ->
      ignore (end_txn t);
      raise e

let set_host_write_hook t hook = t.host_write_hook <- hook
let set_guest_read_hook t hook = t.guest_read_hook <- hook

(* Sanitizer control surface. Enabling is idempotent (a campaign may
   re-enable after an I/O restart without losing totals for the same
   region); epochs delimit one logical parse each. *)

type sanitizer_stats = { double_fetches : int; mutated_fetches : int; epochs : int }

let sanitizer_enable t =
  match t.san with
  | Some _ -> ()
  | None -> t.san <- Some { s_fetches = []; s_double = 0; s_mutated = 0; s_epochs = 0 }

let sanitizer_disable t = t.san <- None

let sanitizer_on t = t.san <> None

let sanitizer_epoch t =
  match t.san with
  | None -> ()
  | Some s ->
      s.s_fetches <- [];
      s.s_epochs <- s.s_epochs + 1

let sanitizer_stats t =
  match t.san with
  | None -> { double_fetches = 0; mutated_fetches = 0; epochs = 0 }
  | Some s -> { double_fetches = s.s_double; mutated_fetches = s.s_mutated; epochs = s.s_epochs }

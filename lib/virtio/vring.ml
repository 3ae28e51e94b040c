(* Split virtqueue layout (VirtIO 1.x "legacy" split format), bit-accurate
   in simulated shared memory.

   Layout at [base] for a queue of [size] entries (size a power of two):

     descriptor table   size * 16 B   { addr:u64, len:u32, flags:u16, next:u16 }
     avail ring         4 + size*2 B  { flags:u16, idx:u16, ring:[u16] }
     used ring          4 + size*8 B  { flags:u16, idx:u16, ring:[{id:u32, len:u32}] }

   Descriptor [addr] fields are offsets into the queue's buffer space (the
   simulator's stand-in for guest-physical addresses). Both actors access
   the structure through [Region], so every read/write is bounds- and
   protection-checked and double-fetch-trackable — which is exactly where
   the paper locates the interface-vulnerability surface of this design. *)

open Cio_util
open Cio_mem

let flag_next = 0x1
let flag_write = 0x2

type desc = { addr : int; len : int; flags : int; next : int }

let desc_has_next d = d.flags land flag_next <> 0
let desc_is_write d = d.flags land flag_write <> 0

type t = {
  region : Region.t;
  base : int;
  size : int;
  desc_off : int;
  avail_off : int;
  used_off : int;
}

let bytes_needed size = (size * 16) + (4 + (size * 2)) + (4 + (size * 8)) + 8

let create ~region ~base ~size =
  if not (Bitops.is_power_of_two size) then invalid_arg "Vring.create: size must be a power of two";
  let desc_off = base in
  let avail_off = desc_off + (size * 16) in
  let used_off = Bitops.align_up (avail_off + 4 + (size * 2)) ~align:4 in
  if used_off + 4 + (size * 8) > Region.size region then
    invalid_arg "Vring.create: ring does not fit in region";
  { region; base; size; desc_off; avail_off; used_off }

let region t = t.region

(* Deliberately *not* wrapped: a descriptor index is data (a buffer id),
   not a ring position. An out-of-range id computes an out-of-range offset
   and the region decides what that means — exactly the hazard unhardened
   drivers face. Ring positions (avail/used slots) below *are* wrapped,
   because those are free-running counters by contract. *)
let desc_slot t i = t.desc_off + (16 * i)

(* Descriptor accessors. The [actor] parameter matters: guest writes
   descriptors, the device reads them — and a malicious device-side actor
   may also *write* them, as the [Host] actor on shared pages. *)

let write_desc t actor i (d : desc) =
  let off = desc_slot t i in
  Region.write_u64 t.region actor ~off (Int64.of_int d.addr);
  Region.write_u32 t.region actor ~off:(off + 8) d.len;
  Region.write_u16 t.region actor ~off:(off + 12) d.flags;
  Region.write_u16 t.region actor ~off:(off + 14) d.next

let read_desc t actor i =
  let off = desc_slot t i in
  {
    addr = Int64.to_int (Region.read_u64 t.region actor ~off);
    len = Region.read_u32 t.region actor ~off:(off + 8);
    flags = Region.read_u16 t.region actor ~off:(off + 12);
    next = Region.read_u16 t.region actor ~off:(off + 14);
  }

(* Avail ring: written by the guest, read by the device. *)

let avail_idx t actor = Region.read_u16 t.region actor ~off:(t.avail_off + 2)

let set_avail_idx t actor v = Region.write_u16 t.region actor ~off:(t.avail_off + 2) (v land 0xFFFF)

let avail_entry t actor slot =
  Region.read_u16 t.region actor ~off:(t.avail_off + 4 + (2 * (slot land (t.size - 1))))

let set_avail_entry t actor slot v =
  Region.write_u16 t.region actor ~off:(t.avail_off + 4 + (2 * (slot land (t.size - 1)))) v

(* Used ring: written by the device, read by the guest. *)

let used_idx t actor = Region.read_u16 t.region actor ~off:(t.used_off + 2)

let set_used_idx t actor v = Region.write_u16 t.region actor ~off:(t.used_off + 2) (v land 0xFFFF)

let used_entry t actor slot =
  let off = t.used_off + 4 + (8 * (slot land (t.size - 1))) in
  let id = Region.read_u32 t.region actor ~off in
  let len = Region.read_u32 t.region actor ~off:(off + 4) in
  (id, len)

(* Field offsets, for precisely targeted attack hooks. *)
let used_len_field_off t slot = t.used_off + 4 + (8 * (slot land (t.size - 1))) + 4
let desc_addr_field_off t i = desc_slot t i

let set_used_entry t actor slot ~id ~len =
  let off = t.used_off + 4 + (8 * (slot land (t.size - 1))) in
  Region.write_u32 t.region actor ~off id;
  Region.write_u32 t.region actor ~off:(off + 4) len

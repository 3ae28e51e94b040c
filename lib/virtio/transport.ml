(* Shared-memory layout for one virtio-net device: RX/TX rings plus two
   buffer arenas, all in a single host-shared region. *)

open Cio_util
open Cio_mem

type t = {
  region : Region.t;
  rx : Vring.t;
  tx : Vring.t;
  queue_size : int;
  buf_size : int;
  rx_buf_base : int;
  tx_buf_base : int;
}

let create ?(model = Cost.default) ?meter ~name () =
  let queue_size = 64 and buf_size = 2048 in
  let ring_bytes = Bitops.align_up (Vring.bytes_needed queue_size) ~align:64 in
  let rx_base = 0 in
  let tx_base = ring_bytes in
  let rx_buf_base = 2 * ring_bytes in
  let tx_buf_base = rx_buf_base + (queue_size * buf_size) in
  let total = tx_buf_base + (queue_size * buf_size) in
  let region = Region.create ?meter ~model ~prot:Region.Shared ~name total in
  {
    region;
    rx = Vring.create ~region ~base:rx_base ~size:queue_size;
    tx = Vring.create ~region ~base:tx_base ~size:queue_size;
    queue_size;
    buf_size;
    rx_buf_base;
    tx_buf_base;
  }

let region t = t.region
let rx t = t.rx
let tx t = t.tx
let queue_size t = t.queue_size
let buf_size t = t.buf_size

let rx_buf_offset t slot = t.rx_buf_base + (slot * t.buf_size)
let tx_buf_offset t slot = t.tx_buf_base + (slot * t.buf_size)

(* Simulated cycle-cost model.

   The reproduction cannot measure a real TEE datapath, so "performance"
   throughout the simulator is counted work under this model: every copy,
   validation check, ring operation, domain crossing, notification and
   crypto pass is charged to a meter. The constants are order-of-magnitude
   figures from the literature the paper builds on (MPK-style intra-TEE
   gates vs enclave transitions vs VM exits), and every experiment that
   depends on a constant also sweeps it, so the *shapes* reported in
   EXPERIMENTS.md do not hinge on any single value. *)

type model = {
  cycles_per_ghz : float;  (** cycles per nanosecond, for time conversion *)
  copy_base : int;         (** fixed cost of initiating a memcpy *)
  copy_per_byte_q2 : int;  (** quarter-cycles per byte copied (fixed point) *)
  check : int;             (** one validation branch on an untrusted value *)
  ring_op : int;           (** one descriptor/ring slot read or write *)
  ring_burst_op : int;
      (** each additional slot touched in a batched ring crossing: the
          first slot pays [ring_op] (cache miss + cursor bookkeeping),
          the rest only adjacent-line word work *)
  mmio : int;              (** one MMIO register access *)
  notification : int;      (** doorbell + VM exit / event injection *)
  gate_crossing : int;     (** intra-TEE compartment switch (MPK-like) *)
  tee_switch : int;        (** full enclave/TEE protection-domain switch *)
  page_share : int;        (** mark one page host-visible *)
  page_share_extra : int;  (** each additional page in a batched share *)
  page_unshare : int;      (** revoke one page (incl. TLB shootdown) *)
  page_unshare_extra : int;
      (** each additional page in a batched revocation: one shootdown IPI
          covers the whole range, so extra pages cost only PTE work *)
  aead_base : int;         (** AEAD setup per record *)
  aead_per_byte_q2 : int;  (** quarter-cycles per byte of AEAD *)
  dma_base : int;          (** device DMA setup *)
  dma_per_byte_q2 : int;   (** quarter-cycles per byte of device DMA *)
  alloc : int;             (** allocator fast path *)
}

let default =
  {
    cycles_per_ghz = 3.0;
    copy_base = 40;
    copy_per_byte_q2 = 1;  (* 0.25 cycles/B: warm streaming copy *)
    check = 3;
    ring_op = 12;
    ring_burst_op = 3;     (* adjacent-line slot access in a batch *)
    mmio = 120;
    notification = 2400;   (* doorbell + exit path *)
    gate_crossing = 110;   (* wrpkru-style switch + spill *)
    tee_switch = 9000;     (* SGX-class world switch *)
    page_share = 900;
    page_share_extra = 90;
    page_unshare = 2600;   (* unmap + remote TLB shootdown *)
    page_unshare_extra = 160;
    aead_base = 250;
    aead_per_byte_q2 = 5;  (* 1.25 cycles/B software ChaCha20-Poly1305 *)
    dma_base = 300;
    dma_per_byte_q2 = 1;
    alloc = 30;
  }

let copy_cost m nbytes = m.copy_base + ((nbytes * m.copy_per_byte_q2) / 4)
let aead_cost m nbytes = m.aead_base + ((nbytes * m.aead_per_byte_q2) / 4)
let dma_cost m nbytes = m.dma_base + ((nbytes * m.dma_per_byte_q2) / 4)

(* Categories let experiments report *where* a configuration spends its
   cycles, not just how many. *)
type category =
  | Copy
  | Check
  | Ring
  | Mmio
  | Notification
  | Gate
  | Tee_switch
  | Share
  | Unshare
  | Crypto
  | Dma
  | Alloc
  | Stack  (** protocol processing in the I/O stack *)

let all_categories =
  [ Copy; Check; Ring; Mmio; Notification; Gate; Tee_switch; Share; Unshare; Crypto; Dma; Alloc; Stack ]

let category_name = function
  | Copy -> "copy"
  | Check -> "check"
  | Ring -> "ring"
  | Mmio -> "mmio"
  | Notification -> "notify"
  | Gate -> "gate"
  | Tee_switch -> "tee-switch"
  | Share -> "share"
  | Unshare -> "unshare"
  | Crypto -> "crypto"
  | Dma -> "dma"
  | Alloc -> "alloc"
  | Stack -> "stack"

let category_index = function
  | Copy -> 0
  | Check -> 1
  | Ring -> 2
  | Mmio -> 3
  | Notification -> 4
  | Gate -> 5
  | Tee_switch -> 6
  | Share -> 7
  | Unshare -> 8
  | Crypto -> 9
  | Dma -> 10
  | Alloc -> 11
  | Stack -> 12

type meter = {
  cycles : int array;  (* per category *)
  counts : int array;
}

let meter () = { cycles = Array.make 13 0; counts = Array.make 13 0 }

let charge meter cat cycles =
  let i = category_index cat in
  meter.cycles.(i) <- meter.cycles.(i) + cycles;
  meter.counts.(i) <- meter.counts.(i) + 1

let total meter = Array.fold_left ( + ) 0 meter.cycles
let cycles_of meter cat = meter.cycles.(category_index cat)
let count_of meter cat = meter.counts.(category_index cat)

let reset meter =
  Array.fill meter.cycles 0 13 0;
  Array.fill meter.counts 0 13 0

let snapshot meter = { cycles = Array.copy meter.cycles; counts = Array.copy meter.counts }

let diff ~before ~after =
  {
    cycles = Array.init 13 (fun i -> after.cycles.(i) - before.cycles.(i));
    counts = Array.init 13 (fun i -> after.counts.(i) - before.counts.(i));
  }

let pp_meter ppf m =
  let any = ref false in
  List.iter
    (fun cat ->
      let i = category_index cat in
      if m.cycles.(i) > 0 || m.counts.(i) > 0 then begin
        if !any then Fmt.pf ppf " ";
        any := true;
        Fmt.pf ppf "%s=%d(%dx)" (category_name cat) m.cycles.(i) m.counts.(i)
      end)
    all_categories;
  if not !any then Fmt.pf ppf "(idle)"

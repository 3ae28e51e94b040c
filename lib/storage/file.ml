(* Minimal file layer over the block client — the storage analogue of the
   in-TEE I/O stack. Two protection modes reproduce the two sides of the
   §3.3 argument:

   - [Plain]: the file layer trusts the block boundary, like a
     lift-and-shift guest filesystem. Host corruption, block remapping
     and stale replays are accepted silently.
   - [Sealed]: the high-level boundary is cryptographic (fscrypt-style):
     every block is AEAD-sealed with its (lba, version) bound into the
     AAD, so a hostile block layer or disk can only deny service — wrong
     bytes, remapped blocks and rolled-back versions all fail closed.

   The file layer itself is deliberately simple (flat namespace,
   whole-file read/write): the experiments exercise the boundary, not
   directory trees. *)

open Cio_crypto

(* Sealed-block geometry: u32 version + nonce + u16 ciphertext length +
   tag fit inside the block alongside the chunk. The explicit length is
   needed because the device always returns whole (zero-padded) blocks. *)
let seal_overhead = 4 + Aead.nonce_len + 2 + Aead.tag_len
let chunk_size = Blockdev.block_size - seal_overhead

type mode = Plain | Sealed of bytes  (* 32-byte key *)

(* A file's size and its blocks in order, updated in place when the file
   is rewritten. *)
type inode = { mutable size : int; mutable blocks : int array }

type t = {
  dev : Blockdev.t;
  mode : mode;
  inodes : (string, inode) Hashtbl.t;
  free : bool array;         (* block allocation bitmap (guest-private) *)
  versions : int array;      (* per-block write version (guest-private) *)
  block : bytes;             (* sealed mode: one block's stored bytes *)
  nonce : bytes;             (* per-block AEAD nonce *)
  aad : bytes;               (* per-block AAD: lba + version *)
  aead : Aead.scratch;       (* per-block AEAD working memory *)
}

type error = Not_found_ | No_space | Io_error of string | Integrity of string

let error_to_string = function
  | Not_found_ -> "file not found"
  | No_space -> "out of blocks"
  | Io_error s -> "I/O error: " ^ s
  | Integrity s -> "integrity violation: " ^ s

let create ~dev ~mode =
  (match mode with
  | Sealed key when Bytes.length key <> Aead.key_len -> invalid_arg "File.create: bad key size"
  | _ -> ());
  let blocks = Blockdev.blocks dev in
  {
    dev;
    mode;
    inodes = Hashtbl.create 16;
    free = Array.make blocks true;
    versions = Array.make blocks 0;
    block = Bytes.create Blockdev.block_size;
    nonce = Bytes.create Aead.nonce_len;
    aad = Bytes.create 8;
    aead = Aead.scratch ();
  }

(* First fit from block [i]: the lowest free block, taken, or -1. *)
let rec alloc_block t i =
  if i >= Array.length t.free then -1
  else if t.free.(i) then begin
    t.free.(i) <- false;
    i
  end
  else alloc_block t (i + 1)

(* Free the first [n] blocks of [blocks]. *)
let free_blocks t blocks n =
  for i = 0 to n - 1 do
    t.free.(blocks.(i)) <- true
  done

let chunk t = match t.mode with Plain -> Blockdev.block_size | Sealed _ -> chunk_size

let charge_crypto t nbytes =
  let m = Blockdev.meter t.dev in
  Cio_util.Cost.charge m Cio_util.Cost.Crypto (Cio_util.Cost.aead_cost Cio_util.Cost.default nbytes)

let set_aad t ~lba ~version =
  Bytes.set_int32_le t.aad 0 (Int32.of_int lba);
  Bytes.set_int32_le t.aad 4 (Int32.of_int version)

(* Sealed-block field offsets. *)
let nonce_off = 4
let len_off = nonce_off + Aead.nonce_len
let ct_off = len_off + 2

(* Write [len] bytes of [src] from [off] to block [lba]. Sealed mode
   seals them into [t.block] first. *)
let write_chunk t ~lba src ~off ~len =
  match t.mode with
  | Plain -> Blockdev.write_sub t.dev ~lba src ~off ~len
  | Sealed key ->
      charge_crypto t len;
      t.versions.(lba) <- t.versions.(lba) + 1;
      let version = t.versions.(lba) in
      (* All twelve bytes: a read leaves the stored nonce here. *)
      Bytes.set_int32_le t.nonce 0 (Int32.of_int lba);
      Bytes.set_int32_le t.nonce 4 (Int32.of_int version);
      Bytes.set_int32_le t.nonce 8 0l;
      set_aad t ~lba ~version;
      let b = t.block in
      Bytes.set_int32_le b 0 (Int32.of_int version);
      Bytes.blit t.nonce 0 b nonce_off Aead.nonce_len;
      Bytes.set_uint16_le b len_off (len + Aead.tag_len);
      Aead.seal_with t.aead ~key ~nonce:t.nonce ~aad:t.aad src ~src_off:off ~len b ~dst_off:ct_off;
      Blockdev.write_sub t.dev ~lba b ~off:0 ~len:(seal_overhead + len)

let auth_failed = Integrity "block failed authentication (corrupt/remap/rollback)"

(* Read the file's blocks from the [i]th on into [out], placing block
   [i]'s chunk at [pos]; returns the bytes placed in all. What a block
   places is clipped to the file's [size], whatever room [out] has:
   Plain mode reads whole zero-padded blocks, and sealed mode must not
   open a longer chunk than the file holds. *)
let rec read_blocks t inode out i pos =
  if i >= Array.length inode.blocks then Ok pos
  else begin
    let lba = inode.blocks.(i) in
    let room = inode.size - pos in
    match t.mode with
    | Plain ->
        let n = Blockdev.read_into t.dev ~lba out ~off:pos ~len:(Int.min Blockdev.block_size room) in
        if n < 0 then Error (Io_error (Blockdev.failure n)) else read_blocks t inode out (i + 1) (pos + n)
    | Sealed key ->
        let len = Blockdev.read_into t.dev ~lba t.block ~off:0 ~len:Blockdev.block_size in
        if len < 0 then Error (Io_error (Blockdev.failure len))
        else if len < seal_overhead then Error (Integrity "sealed block too short")
        else begin
          (* The expected version comes from guest-private state, not
             from the (host-controlled) stored bytes: rollback cannot
             lie. The declared ciphertext length is untrusted and
             clamped. *)
          let expected_version = t.versions.(lba) in
          Bytes.blit t.block nonce_off t.nonce 0 Aead.nonce_len;
          let declared = Bytes.get_uint16_le t.block len_off in
          let clen = Int.min declared (len - seal_overhead + Aead.tag_len) in
          charge_crypto t clen;
          set_aad t ~lba ~version:expected_version;
          let plain = Int.max 0 (clen - Aead.tag_len) in
          (* A block authenticates only under the (lba, version) it was
             sealed with, and holds exactly the chunk sealed then, which
             fits: a longer claim cannot authenticate. *)
          if plain <= room
             && Aead.open_with t.aead ~key ~nonce:t.nonce ~aad:t.aad t.block ~src_off:ct_off ~len:clen
                  out ~dst_off:pos
          then read_blocks t inode out (i + 1) (pos + plain)
          else Error auth_failed
        end
  end

let delete t name =
  match Hashtbl.find t.inodes name with
  | exception Not_found -> Error Not_found_
  | inode ->
      free_blocks t inode.blocks (Array.length inode.blocks);
      Hashtbl.remove t.inodes name;
      Ok ()

(* A failed write frees the [placed] blocks it took and drops the file. *)
let write_failed t ~name inode placed e =
  free_blocks t inode.blocks placed;
  Hashtbl.remove t.inodes name;
  Error e

(* Place the file's chunks from the [i]th on. *)
let rec write_blocks t ~name inode src ~off ~chunk i =
  if i >= Array.length inode.blocks then Ok ()
  else begin
    let lba = alloc_block t 0 in
    if lba < 0 then write_failed t ~name inode i No_space
    else begin
      inode.blocks.(i) <- lba;
      let pos = i * chunk in
      match write_chunk t ~lba src ~off:(off + pos) ~len:(Int.min chunk (inode.size - pos)) with
      | Ok () -> write_blocks t ~name inode src ~off ~chunk (i + 1)
      | Error e -> write_failed t ~name inode (i + 1) (Io_error e)
    end
  end

(* Replace semantics: the file's old blocks are freed before its new
   ones are taken, first fit, so a rewrite lands where a delete and a
   write would. *)
let write_sub t ~name src ~off ~len =
  let chunk = chunk t in
  let nblocks = max 1 ((len + chunk - 1) / chunk) in
  let inode =
    match Hashtbl.find t.inodes name with
    | inode ->
        free_blocks t inode.blocks (Array.length inode.blocks);
        if Array.length inode.blocks <> nblocks then inode.blocks <- Array.make nblocks 0;
        inode
    | exception Not_found ->
        let inode = { size = 0; blocks = Array.make nblocks 0 } in
        Hashtbl.replace t.inodes name inode;
        inode
  in
  inode.size <- len;
  write_blocks t ~name inode src ~off ~chunk 0

let write_file t ~name content = write_sub t ~name content ~off:0 ~len:(Bytes.length content)

let read_into t ~name dst =
  match Hashtbl.find t.inodes name with
  | exception Not_found -> Error Not_found_
  | inode ->
      if Bytes.length dst < inode.size then invalid_arg "File.read_into: buffer shorter than the file";
      read_blocks t inode dst 0 0

(* The result is allocated once, at the file's size, and each block's
   chunk lands in it straight from the device's response buffer (Plain)
   or from [t.block] (sealed). *)
let read_file t ~name =
  match Hashtbl.find t.inodes name with
  | exception Not_found -> Error Not_found_
  | inode -> (
      let out = Bytes.create inode.size in
      match read_blocks t inode out 0 0 with
      | Ok n -> Ok (if n = inode.size then out else Bytes.sub out 0 n)
      | Error e -> Error e)

let list_files t = Hashtbl.fold (fun name inode acc -> (name, inode.size) :: acc) t.inodes []
let meter t = Blockdev.meter t.dev

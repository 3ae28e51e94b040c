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

type inode = { name : string; size : int; inode_blocks : int list }

type t = {
  dev : Blockdev.t;
  mode : mode;
  mutable inodes : inode list;
  free : bool array;         (* block allocation bitmap (guest-private) *)
  versions : int array;      (* per-block write version (guest-private) *)
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
    inodes = [];
    free = Array.make blocks true;
    versions = Array.make blocks 0;
    nonce = Bytes.create Aead.nonce_len;
    aad = Bytes.create 8;
    aead = Aead.scratch ();
  }

let alloc_block t =
  let n = Array.length t.free in
  let rec go i = if i >= n then None else if t.free.(i) then Some i else go (i + 1) in
  match go 0 with
  | Some i ->
      t.free.(i) <- false;
      Some i
  | None -> None

let free_block t i = t.free.(i) <- true

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

(* Write [len] bytes of [content] from [off] to block [lba]. Sealed mode
   seals them straight into the device's staged request buffer. *)
let write_chunk t ~lba content ~off ~len =
  match t.mode with
  | Plain -> Blockdev.write_sub t.dev ~lba content ~off ~len
  | Sealed key ->
      charge_crypto t len;
      t.versions.(lba) <- t.versions.(lba) + 1;
      let version = t.versions.(lba) in
      (* All twelve bytes: a read leaves the stored nonce here. *)
      Bytes.set_int32_le t.nonce 0 (Int32.of_int lba);
      Bytes.set_int32_le t.nonce 4 (Int32.of_int version);
      Bytes.set_int32_le t.nonce 8 0l;
      set_aad t ~lba ~version;
      Blockdev.write_from t.dev ~lba ~len:(seal_overhead + len) (fun b o ->
          Bytes.set_int32_le b o (Int32.of_int version);
          Bytes.blit t.nonce 0 b (o + nonce_off) Aead.nonce_len;
          Bytes.set_uint16_le b (o + len_off) (len + Aead.tag_len);
          Aead.seal_with t.aead ~key ~nonce:t.nonce ~aad:t.aad content ~src_off:off ~len b
            ~dst_off:(o + ct_off))

let auth_failed = Integrity "block failed authentication (corrupt/remap/rollback)"

(* Append the chunk held by one stored block ([len] bytes at [off] in
   [b]) to [out] at [pos]; returns how many bytes were placed. Plain
   mode clips to [out]'s end; sealed mode opens straight into [out]. *)
let place_chunk t ~lba b ~off ~len out ~pos =
  let room = Bytes.length out - pos in
  match t.mode with
  | Plain ->
      let n = Int.min (Int.min Blockdev.block_size len) room in
      Bytes.blit b off out pos n;
      Ok n
  | Sealed key ->
      if len < seal_overhead then Error (Integrity "sealed block too short")
      else begin
        (* The expected version comes from guest-private state, not from
           the (host-controlled) stored bytes: rollback cannot lie. The
           declared ciphertext length is untrusted and clamped. *)
        let expected_version = t.versions.(lba) in
        Bytes.blit b (off + nonce_off) t.nonce 0 Aead.nonce_len;
        let declared = Bytes.get_uint16_le b (off + len_off) in
        let clen = Int.min declared (len - seal_overhead + Aead.tag_len) in
        charge_crypto t clen;
        set_aad t ~lba ~version:expected_version;
        let plain = Int.max 0 (clen - Aead.tag_len) in
        (* A block authenticates only under the (lba, version) it was
           sealed with, and holds exactly the chunk sealed then, which
           fits: a longer claim cannot authenticate. *)
        if plain <= room
           && Aead.open_with t.aead ~key ~nonce:t.nonce ~aad:t.aad b ~src_off:(off + ct_off) ~len:clen
                out ~dst_off:pos
        then Ok plain
        else Error auth_failed
      end

let find t name = List.find_opt (fun i -> i.name = name) t.inodes

let delete t name =
  match find t name with
  | None -> Error Not_found_
  | Some inode ->
      List.iter (free_block t) inode.inode_blocks;
      t.inodes <- List.filter (fun i -> i.name <> name) t.inodes;
      Ok ()

let write_file t ~name content =
  (* Replace semantics: drop any existing file first. *)
  (match delete t name with Ok () | Error Not_found_ -> () | Error _ -> ());
  let chunk = chunk t in
  let size = Bytes.length content in
  let nblocks = max 1 ((size + chunk - 1) / chunk) in
  let rec place i acc =
    if i >= nblocks then Ok (List.rev acc)
    else begin
      match alloc_block t with
      | None ->
          List.iter (free_block t) acc;
          Error No_space
      | Some lba -> (
          let off = i * chunk in
          match write_chunk t ~lba content ~off ~len:(Int.min chunk (size - off)) with
          | Blockdev.Write_ok -> place (i + 1) (lba :: acc)
          | Blockdev.Failed e ->
              List.iter (free_block t) (lba :: acc);
              Error (Io_error e)
          | Blockdev.Data _ ->
              List.iter (free_block t) (lba :: acc);
              Error (Io_error "unexpected data response"))
    end
  in
  match place 0 [] with
  | Error e -> Error e
  | Ok placed ->
      t.inodes <- { name; size; inode_blocks = placed } :: t.inodes;
      Ok ()

(* The result is allocated once, at the file's size, and each block's
   chunk lands in it straight from the device's response buffer. *)
let read_file t ~name =
  match find t name with
  | None -> Error Not_found_
  | Some inode ->
      let out = Bytes.create inode.size in
      let rec go pos = function
        | [] -> Ok (if pos = inode.size then out else Bytes.sub out 0 pos)
        | lba :: rest -> (
            match Blockdev.read_with t.dev ~lba (fun b off len -> place_chunk t ~lba b ~off ~len out ~pos) with
            | Blockdev.Failed e -> Error (Io_error e)
            | Blockdev.Write_ok -> Error (Io_error "unexpected write response")
            | Blockdev.Data (Error e) -> Error e
            | Blockdev.Data (Ok n) -> go (pos + n) rest)
      in
      go 0 inode.inode_blocks

let list_files t = List.map (fun i -> (i.name, i.size)) t.inodes
let meter t = Blockdev.meter t.dev

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
  mutable rng_counter : int;
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
  { dev; mode; inodes = []; free = Array.make blocks true; versions = Array.make blocks 0; rng_counter = 0 }

let alloc_block t =
  let n = Array.length t.free in
  let rec go i = if i >= n then None else if t.free.(i) then Some i else go (i + 1) in
  match go 0 with
  | Some i ->
      t.free.(i) <- false;
      Some i
  | None -> None

let free_block t i = t.free.(i) <- true

let chunk_of_mode t = match t.mode with Plain -> Blockdev.block_size | Sealed _ -> chunk_size

let charge_crypto t nbytes =
  let m = Blockdev.meter t.dev in
  Cio_util.Cost.charge m Cio_util.Cost.Crypto (Cio_util.Cost.aead_cost Cio_util.Cost.default nbytes)

let seal_chunk t ~lba chunk =
  match t.mode with
  | Plain -> chunk
  | Sealed key ->
      charge_crypto t (Bytes.length chunk);
      t.versions.(lba) <- t.versions.(lba) + 1;
      let version = t.versions.(lba) in
      let nonce = Bytes.make Aead.nonce_len '\000' in
      Bytes.set_int32_le nonce 0 (Int32.of_int lba);
      Bytes.set_int32_le nonce 4 (Int32.of_int version);
      let aad = Bytes.create 8 in
      Bytes.set_int32_le aad 0 (Int32.of_int lba);
      Bytes.set_int32_le aad 4 (Int32.of_int version);
      let len = Bytes.length chunk in
      let out = Bytes.create (seal_overhead + len) in
      Bytes.set_int32_le out 0 (Int32.of_int version);
      Bytes.blit nonce 0 out 4 Aead.nonce_len;
      Bytes.set_uint16_le out (4 + Aead.nonce_len) (len + Aead.tag_len);
      Aead.seal_into ~key ~nonce ~aad chunk ~src_off:0 ~len out ~dst_off:(4 + Aead.nonce_len + 2);
      out

let open_chunk t ~lba stored =
  match t.mode with
  | Plain -> Ok stored
  | Sealed key ->
      if Bytes.length stored < seal_overhead then Error (Integrity "sealed block too short")
      else begin
        (* The expected version comes from guest-private state, not from
           the (host-controlled) stored bytes: rollback cannot lie. The
           declared ciphertext length is untrusted and clamped. *)
        let expected_version = t.versions.(lba) in
        let nonce = Bytes.sub stored 4 Aead.nonce_len in
        let declared = Bytes.get_uint16_le stored (4 + Aead.nonce_len) in
        let clen = min declared (Bytes.length stored - seal_overhead + Aead.tag_len) in
        charge_crypto t clen;
        let aad = Bytes.create 8 in
        Bytes.set_int32_le aad 0 (Int32.of_int lba);
        Bytes.set_int32_le aad 4 (Int32.of_int expected_version);
        let chunk = Bytes.create (max 0 (clen - Aead.tag_len)) in
        if Aead.open_into ~key ~nonce ~aad stored ~src_off:(4 + Aead.nonce_len + 2) ~len:clen chunk
             ~dst_off:0
        then Ok chunk
        else Error (Integrity "block failed authentication (corrupt/remap/rollback)")
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
  let chunk = chunk_of_mode t in
  let size = Bytes.length content in
  let nblocks = max 1 ((size + chunk - 1) / chunk) in
  let rec place i acc =
    if i >= nblocks then Ok (List.rev acc)
    else begin
      match alloc_block t with
      | None ->
          List.iter (free_block t) acc;
          Error No_space
      | Some lba ->
          let off = i * chunk in
          let len = min chunk (size - off) in
          let piece = if len > 0 then Bytes.sub content off len else Bytes.empty in
          let stored = seal_chunk t ~lba piece in
          (match Blockdev.write_block t.dev ~lba stored with
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

let read_file t ~name =
  match find t name with
  | None -> Error Not_found_
  | Some inode ->
      let chunk = chunk_of_mode t in
      let out = Buffer.create inode.size in
      let rec go = function
        | [] ->
            let all = Buffer.to_bytes out in
            Ok (Bytes.sub all 0 (min inode.size (Bytes.length all)))
        | lba :: rest -> (
            match Blockdev.read_block t.dev ~lba with
            | Blockdev.Failed e -> Error (Io_error e)
            | Blockdev.Write_ok -> Error (Io_error "unexpected write response")
            | Blockdev.Data stored -> (
                match open_chunk t ~lba stored with
                | Error e -> Error e
                | Ok piece ->
                    Buffer.add_bytes out (Bytes.sub piece 0 (min chunk (Bytes.length piece)));
                    go rest))
      in
      ignore chunk;
      go inode.inode_blocks

let list_files t = List.map (fun i -> (i.name, i.size)) t.inodes
let meter t = Blockdev.meter t.dev

(* Storage generalisation (§3.3 / E9): block layer over the safe ring,
   file layer in both protection modes, and the attack contrasts. *)

open Cio_storage

let make_dev () = Blockdev.create ~name:"test-disk" ~blocks:64 ()

(* A raw block read and write, as the host could make them: the block's
   payload, or the device's failure message. *)
let read_block dev ~lba =
  let b = Bytes.create Blockdev.block_size in
  let n = Blockdev.read_into dev ~lba b ~off:0 ~len:Blockdev.block_size in
  if n < 0 then Error (Blockdev.failure n) else Ok (Bytes.sub b 0 n)

let write_block dev ~lba b = Blockdev.write_sub dev ~lba b ~off:0 ~len:(Bytes.length b)

let test_block_write_read () =
  let dev, _ = make_dev () in
  let data = Bytes.make Blockdev.block_size 'D' in
  (match write_block dev ~lba:3 data with
  | Ok () -> ()
  | _ -> Alcotest.fail "write failed");
  match read_block dev ~lba:3 with
  | Ok got -> Helpers.check_bytes "block content" data got
  | _ -> Alcotest.fail "read failed"

let test_block_out_of_range () =
  let dev, _ = make_dev () in
  match read_block dev ~lba:999 with
  | Error _ -> ()
  | _ -> Alcotest.fail "out-of-range lba must fail"

let test_block_lie_len_rejected_by_codec () =
  let dev, disk = make_dev () in
  ignore (write_block dev ~lba:0 (Bytes.make 512 'x'));
  Blockdev.disk_inject disk Blockdev.Lie_response_len;
  match read_block dev ~lba:0 with
  | Error "malformed response" -> ()
  | Error e -> Alcotest.fail ("unexpected failure: " ^ e)
  | _ -> Alcotest.fail "length lie must be rejected by the stateless codec"

let test_file_roundtrip_plain () =
  let dev, _ = make_dev () in
  let fs = File.create ~dev ~mode:File.Plain in
  let content = Bytes.init 10_000 (fun i -> Char.chr ((i * 13) land 0xFF)) in
  (match File.write_file fs ~name:"data.bin" content with
  | Ok () -> ()
  | Error e -> Alcotest.fail (File.error_to_string e));
  match File.read_file fs ~name:"data.bin" with
  | Ok got -> Helpers.check_bytes "content" content got
  | Error e -> Alcotest.fail (File.error_to_string e)

let sealed_fs dev = File.create ~dev ~mode:(File.Sealed (Bytes.make 32 'K'))

let test_file_roundtrip_sealed () =
  let dev, _ = make_dev () in
  let fs = sealed_fs dev in
  let content = Bytes.init 20_000 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  (match File.write_file fs ~name:"sealed.bin" content with
  | Ok () -> ()
  | Error e -> Alcotest.fail (File.error_to_string e));
  match File.read_file fs ~name:"sealed.bin" with
  | Ok got -> Helpers.check_bytes "content" content got
  | Error e -> Alcotest.fail (File.error_to_string e)

let test_file_replace_semantics () =
  let dev, _ = make_dev () in
  let fs = File.create ~dev ~mode:File.Plain in
  ignore (File.write_file fs ~name:"f" (Bytes.of_string "version-1"));
  ignore (File.write_file fs ~name:"f" (Bytes.of_string "v2"));
  (match File.read_file fs ~name:"f" with
  | Ok got -> Helpers.check_bytes "latest version" (Bytes.of_string "v2") got
  | Error e -> Alcotest.fail (File.error_to_string e));
  Alcotest.(check int) "one directory entry" 1 (List.length (File.list_files fs))

let test_file_delete_frees_blocks () =
  let dev, _ = make_dev () in
  let fs = File.create ~dev ~mode:File.Plain in
  (* Fill most of the disk, delete, then fill again: blocks must recycle. *)
  let big = Bytes.make (50 * Blockdev.block_size) 'b' in
  (match File.write_file fs ~name:"big" big with Ok () -> () | Error e -> Alcotest.fail (File.error_to_string e));
  (match File.delete fs "big" with Ok () -> () | Error _ -> Alcotest.fail "delete");
  match File.write_file fs ~name:"big2" big with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("blocks not recycled: " ^ File.error_to_string e)

let test_file_not_found () =
  let dev, _ = make_dev () in
  let fs = File.create ~dev ~mode:File.Plain in
  match File.read_file fs ~name:"ghost" with
  | Error File.Not_found_ -> ()
  | _ -> Alcotest.fail "missing file must report not found"

let test_no_space () =
  let dev, _ = make_dev () in
  let fs = File.create ~dev ~mode:File.Plain in
  match File.write_file fs ~name:"huge" (Bytes.make (100 * Blockdev.block_size) 'x') with
  | Error File.No_space -> ()
  | _ -> Alcotest.fail "over-capacity write must fail with No_space"

(* --- the E9 attack contrast ------------------------------------------- *)

let test_corruption_silent_in_plain_mode () =
  let dev, disk = make_dev () in
  let fs = File.create ~dev ~mode:File.Plain in
  let content = Bytes.make 1000 'p' in
  ignore (File.write_file fs ~name:"f" content);
  Blockdev.disk_inject disk Blockdev.Corrupt_block;
  match File.read_file fs ~name:"f" with
  | Ok got ->
      (* Accepted without complaint — and wrong. The lift-and-shift
         failure mode. *)
      Alcotest.(check bool) "silently wrong" false (Bytes.equal got content)
  | Error _ -> Alcotest.fail "plain mode has no way to detect this"

let test_corruption_detected_in_sealed_mode () =
  let dev, disk = make_dev () in
  let fs = sealed_fs dev in
  ignore (File.write_file fs ~name:"f" (Bytes.make 1000 's'));
  Blockdev.disk_inject disk Blockdev.Corrupt_block;
  match File.read_file fs ~name:"f" with
  | Error (File.Integrity _) -> ()
  | Ok _ -> Alcotest.fail "sealed mode must detect corruption"
  | Error e -> Alcotest.fail ("wrong error: " ^ File.error_to_string e)

let test_remap_detected_in_sealed_mode () =
  let dev, disk = make_dev () in
  let fs = sealed_fs dev in
  ignore (File.write_file fs ~name:"a" (Bytes.make 1000 'a'));
  ignore (File.write_file fs ~name:"b" (Bytes.make 1000 'b'));
  Blockdev.disk_inject disk Blockdev.Wrong_lba;
  (* The response claims a different lba; the lba-bound AAD kills it. *)
  match File.read_file fs ~name:"a" with
  | Error (File.Integrity _) -> ()
  | Ok _ -> Alcotest.fail "remap must be detected"
  | Error e -> Alcotest.fail ("wrong error: " ^ File.error_to_string e)

let test_rollback_detected_in_sealed_mode () =
  let dev, _ = make_dev () in
  let fs = sealed_fs dev in
  ignore (File.write_file fs ~name:"f" (Bytes.of_string "version-one-content"));
  (* Capture the sealed block, overwrite the file, then roll the disk
     back to the captured block: stale-but-authentic data. *)
  let disk_region_snapshot = read_block dev ~lba:0 in
  ignore (File.write_file fs ~name:"f" (Bytes.of_string "version-two-content"));
  (match disk_region_snapshot with
  | Ok old_block -> ignore (write_block dev ~lba:1 old_block)
  | _ -> ());
  (* Version-two landed on a fresh block; force a rollback by rewriting
     its block with the version-one ciphertext. *)
  (match (File.list_files fs, disk_region_snapshot) with
  | _, Ok old_block ->
      (* Find version-two's block: it is whichever block the inode holds;
         easiest honest rollback: write old ciphertext over every block. *)
      for lba = 0 to 7 do
        ignore (write_block dev ~lba old_block)
      done
  | _ -> ());
  match File.read_file fs ~name:"f" with
  | Error (File.Integrity _) -> ()
  | Ok got ->
      Alcotest.(check bool) "if accepted it must be current" true
        (Bytes.equal got (Bytes.of_string "version-two-content"))
  | Error e -> Alcotest.fail ("wrong error: " ^ File.error_to_string e)

let test_sealed_write_read_many_files () =
  let dev, _ = make_dev () in
  let fs = sealed_fs dev in
  let files = List.init 10 (fun i -> (Printf.sprintf "file-%d" i, Bytes.make (500 * (i + 1)) (Char.chr (65 + i)))) in
  List.iter
    (fun (name, content) ->
      match File.write_file fs ~name content with
      | Ok () -> ()
      | Error e -> Alcotest.fail (File.error_to_string e))
    files;
  List.iter
    (fun (name, content) ->
      match File.read_file fs ~name with
      | Ok got -> Helpers.check_bytes name content got
      | Error e -> Alcotest.fail (File.error_to_string e))
    files

let prop_sealed_roundtrip =
  QCheck.Test.make ~name:"sealed file roundtrip, arbitrary sizes" ~count:50
    QCheck.(string_of_size Gen.(int_range 0 20_000))
    (fun content ->
      let dev, _ = make_dev () in
      let fs = sealed_fs dev in
      match File.write_file fs ~name:"p" (Bytes.of_string content) with
      | Error _ -> String.length content > 50 * Blockdev.block_size
      | Ok () -> (
          match File.read_file fs ~name:"p" with
          | Ok got -> String.equal (Bytes.to_string got) content
          | Error _ -> false))

(* --- dual_store: the full ternary model ---------------------------------- *)

let make_store () =
  let dev, disk = make_dev () in
  (Dual_store.create ~dev ~key:(Bytes.make 32 'K') (), disk)

let test_dual_store_roundtrip () =
  let store, _ = make_store () in
  let content = Bytes.init 9_000 (fun i -> Char.chr ((i * 3) land 0xFF)) in
  (match Dual_store.write_file store ~name:"doc" content with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Dual_store.error_to_string e));
  match Dual_store.read_file store ~name:"doc" with
  | Ok got -> Helpers.check_bytes "content" content got
  | Error e -> Alcotest.fail (Dual_store.error_to_string e)

let test_dual_store_gates_charged () =
  let store, _ = make_store () in
  ignore (Dual_store.write_file store ~name:"f" (Bytes.make 100 'x'));
  ignore (Dual_store.read_file store ~name:"f");
  Alcotest.(check int) "one gate per operation" 2 (Dual_store.crossings store)

let test_dual_store_disk_never_sees_plaintext () =
  let dev, _disk = make_dev () in
  let store = Dual_store.create ~dev ~key:(Bytes.make 32 'K') () in
  let secret = "the-secret-ledger-entry-0xFEED" in
  ignore (Dual_store.write_file store ~name:"ledger" (Bytes.of_string secret));
  (* Read every block back raw (as the host could) and scan. *)
  let found = ref false in
  for lba = 0 to Blockdev.blocks dev - 1 do
    match read_block dev ~lba with
    | Ok b ->
        let s = Bytes.to_string b in
        let n = String.length s and c = String.length secret in
        let rec go i = i + c <= n && (String.equal (String.sub s i c) secret || go (i + 1)) in
        if go 0 then found := true
    | _ -> ()
  done;
  Alcotest.(check bool) "plaintext never reaches the disk" false !found

let test_dual_store_wrong_file_swap_detected () =
  (* The quarantined file layer (or host) serves file B when asked for A:
     the name-bound AAD kills it. *)
  let dev, _ = make_dev () in
  let store = Dual_store.create ~dev ~key:(Bytes.make 32 'K') () in
  ignore (Dual_store.write_file store ~name:"A" (Bytes.make 500 'a'));
  ignore (Dual_store.write_file store ~name:"B" (Bytes.make 500 'b'));
  (* Simulate the swap below the app: copy B's sealed block over A's
     (a host-level block copy). *)
  (match read_block dev ~lba:1 with
  | Ok b_sealed -> ignore (write_block dev ~lba:0 b_sealed)
  | _ -> ());
  match Dual_store.read_file store ~name:"A" with
  | Error (Dual_store.Integrity _) -> ()
  | Ok got ->
      (* If the copy landed elsewhere the read may still succeed — but it
         must then be the genuine A. *)
      Helpers.check_bytes "if accepted, must be genuine A" (Bytes.make 500 'a') got
  | Error e -> Alcotest.fail (Dual_store.error_to_string e)

let test_dual_store_rollback_detected () =
  let dev, _ = make_dev () in
  let store = Dual_store.create ~dev ~key:(Bytes.make 32 'K') () in
  ignore (Dual_store.write_file store ~name:"f" (Bytes.of_string "version-1"));
  (* Capture v1's sealed block, overwrite the file, roll the block back. *)
  let v1_block = read_block dev ~lba:0 in
  ignore (Dual_store.write_file store ~name:"f" (Bytes.of_string "version-2"));
  (match v1_block with
  | Ok b ->
      for lba = 0 to 4 do
        ignore (write_block dev ~lba b)
      done
  | _ -> ());
  match Dual_store.read_file store ~name:"f" with
  | Error (Dual_store.Integrity _) -> ()
  | Ok got -> Helpers.check_bytes "if accepted, must be current" (Bytes.of_string "version-2") got
  | Error e -> Alcotest.fail (Dual_store.error_to_string e)

let test_dual_store_rogue_domain_denied () =
  let store, _ = make_store () in
  match Dual_store.rogue_store_reads_app_memory store with
  | `Denied -> ()
  | `Leaked -> Alcotest.fail "storage domain must not reach app memory"

let test_dual_store_access_pattern_visible () =
  (* The residual channel: distinct files produce distinct block traces
     even though all contents are sealed. *)
  let dev, disk = make_dev () in
  let store = Dual_store.create ~dev ~key:(Bytes.make 32 'K') () in
  ignore (Dual_store.write_file store ~name:"A" (Bytes.make 9000 'a'));
  ignore (Dual_store.write_file store ~name:"B" (Bytes.make 9000 'b'));
  Blockdev.disk_clear_log disk;
  ignore (Dual_store.read_file store ~name:"A");
  let trace_a = List.map snd (Blockdev.disk_access_log disk) in
  Blockdev.disk_clear_log disk;
  ignore (Dual_store.read_file store ~name:"B");
  let trace_b = List.map snd (Blockdev.disk_access_log disk) in
  Alcotest.(check bool) "traces nonempty" true (trace_a <> [] && trace_b <> []);
  Alcotest.(check bool) "traces distinguish the files" true (trace_a <> trace_b)

let test_dual_store_delete () =
  let store, _ = make_store () in
  ignore (Dual_store.write_file store ~name:"gone" (Bytes.make 10 'x'));
  (match Dual_store.delete store ~name:"gone" with Ok () -> () | Error e -> Alcotest.fail (Dual_store.error_to_string e));
  match Dual_store.read_file store ~name:"gone" with
  | Error (Dual_store.Store_error File.Not_found_) -> ()
  | _ -> Alcotest.fail "deleted file must be gone"

let suite =
  [
    Alcotest.test_case "block: write/read" `Quick test_block_write_read;
    Alcotest.test_case "block: out of range" `Quick test_block_out_of_range;
    Alcotest.test_case "block: length lie rejected" `Quick test_block_lie_len_rejected_by_codec;
    Alcotest.test_case "file: roundtrip (plain)" `Quick test_file_roundtrip_plain;
    Alcotest.test_case "file: roundtrip (sealed)" `Quick test_file_roundtrip_sealed;
    Alcotest.test_case "file: replace semantics" `Quick test_file_replace_semantics;
    Alcotest.test_case "file: delete recycles blocks" `Quick test_file_delete_frees_blocks;
    Alcotest.test_case "file: not found" `Quick test_file_not_found;
    Alcotest.test_case "file: no space" `Quick test_no_space;
    Alcotest.test_case "E9: corruption silent in plain" `Quick test_corruption_silent_in_plain_mode;
    Alcotest.test_case "E9: corruption detected sealed" `Quick test_corruption_detected_in_sealed_mode;
    Alcotest.test_case "E9: remap detected sealed" `Quick test_remap_detected_in_sealed_mode;
    Alcotest.test_case "E9: rollback detected sealed" `Quick test_rollback_detected_in_sealed_mode;
    Alcotest.test_case "file: many sealed files" `Quick test_sealed_write_read_many_files;
    Alcotest.test_case "dual store: roundtrip" `Quick test_dual_store_roundtrip;
    Alcotest.test_case "dual store: gates charged" `Quick test_dual_store_gates_charged;
    Alcotest.test_case "dual store: no plaintext on disk" `Quick
      test_dual_store_disk_never_sees_plaintext;
    Alcotest.test_case "dual store: file swap detected" `Quick test_dual_store_wrong_file_swap_detected;
    Alcotest.test_case "dual store: rollback detected" `Quick test_dual_store_rollback_detected;
    Alcotest.test_case "dual store: rogue domain denied" `Quick test_dual_store_rogue_domain_denied;
    Alcotest.test_case "dual store: access pattern visible (E19)" `Quick
      test_dual_store_access_pattern_visible;
    Alcotest.test_case "dual store: delete" `Quick test_dual_store_delete;
    Helpers.qtest prop_sealed_roundtrip;
  ]

(* --- the pooled block path -------------------------------------------- *)

let key = Bytes.make 32 'K'

let test_dual_store_nonce_aad_formula () =
  (* The app seals file [name] at [version] under nonce = the first 12
     bytes of SHA-256(name) with the version over bytes 0-3, and AAD =
     "name#version". The file layer is Plain and allocates first-fit, so
     a one-block sealed file sits at lba 0: its bytes must be exactly
     that sealing, across versions and after a delete. *)
  let expected ~name ~version content =
    let nonce = Bytes.sub (Cio_crypto.Sha256.digest_string name) 0 Cio_crypto.Aead.nonce_len in
    Bytes.set_int32_le nonce 0 (Int32.of_int version);
    let aad = Bytes.of_string (Printf.sprintf "%s#%d" name version) in
    Cio_crypto.Aead.seal ~key ~nonce ~aad content
  in
  let check_write store dev ~name ~version =
    let content = Bytes.init (100 + version) (fun i -> Char.chr (((i * 5) + version) land 0xFF)) in
    (match Dual_store.write_file store ~name content with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Dual_store.error_to_string e));
    let want = expected ~name ~version content in
    match read_block dev ~lba:0 with
    | Ok b ->
        Helpers.check_bytes (Printf.sprintf "%S v%d" name version) want (Bytes.sub b 0 (Bytes.length want))
    | _ -> Alcotest.fail "raw block read failed"
  in
  List.iter
    (fun name ->
      let dev, _ = make_dev () in
      let store = Dual_store.create ~dev ~key () in
      for version = 1 to 12 do
        check_write store dev ~name ~version
      done;
      (match Dual_store.delete store ~name with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Dual_store.error_to_string e));
      check_write store dev ~name ~version:1;
      check_write store dev ~name ~version:2)
    [ ""; "a"; "doc"; "file#1"; "\xc3\xbcnic\xc3\xb8de"; String.make 300 'n' ]

(* Differential test: random write/read/delete sequences against a
   Hashtbl model of the contents and a first-fit model of the block
   allocator, which fixes the (op, lba) sequence the disk must see. *)

type size = Zero | One | Chunk | Chunk_plus_one | Three_chunks | Bytes_ of int
type fop = Write of int * size | Read of int | Delete of int

let size_of chunk = function
  | Zero -> 0
  | One -> 1
  | Chunk -> chunk
  | Chunk_plus_one -> chunk + 1
  | Three_chunks -> 3 * chunk
  | Bytes_ n -> n

let print_fop = function
  | Write (f, s) ->
      let s =
        match s with
        | Zero -> "0"
        | One -> "1"
        | Chunk -> "chunk"
        | Chunk_plus_one -> "chunk+1"
        | Three_chunks -> "3*chunk"
        | Bytes_ n -> string_of_int n
      in
      Printf.sprintf "write f%d %s" f s
  | Read f -> Printf.sprintf "read f%d" f
  | Delete f -> Printf.sprintf "delete f%d" f

let gen_fops =
  let open QCheck.Gen in
  let file = int_bound 3 in
  let size =
    frequency
      [
        (1, return Zero);
        (1, return One);
        (1, return Chunk);
        (1, return Chunk_plus_one);
        (1, return Three_chunks);
        (2, map (fun n -> Bytes_ n) (int_bound 12_000));
      ]
  in
  list_size (int_range 1 30)
    (frequency
       [
         (3, map2 (fun f s -> Write (f, s)) file size);
         (3, map (fun f -> Read f) file);
         (1, map (fun f -> Delete f) file);
       ])

let run_against_model mode fops =
  let dev, disk = make_dev () in
  let fs = File.create ~dev ~mode in
  let chunk = File.chunk fs in
  let files = Hashtbl.create 4 in
  let free = Array.make (Blockdev.blocks dev) true in
  let log = ref [] in
  let expect op lbas = List.iter (fun lba -> log := (op, lba) :: !log) lbas in
  let release name =
    match Hashtbl.find_opt files name with
    | Some (_, lbas) ->
        List.iter (fun lba -> free.(lba) <- true) lbas;
        Hashtbl.remove files name
    | None -> ()
  in
  let rec first_fit n lba =
    if n = 0 then []
    else if free.(lba) then begin
      free.(lba) <- false;
      lba :: first_fit (n - 1) (lba + 1)
    end
    else first_fit n (lba + 1)
  in
  let step i fop =
    match fop with
    | Write (f, s) ->
        let name = Printf.sprintf "f%d" f in
        let size = size_of chunk s in
        let content = Bytes.init size (fun j -> Char.chr (((j * 31) + (i * 7) + f) land 0xFF)) in
        release name;
        let lbas = first_fit (max 1 ((size + chunk - 1) / chunk)) 0 in
        Hashtbl.replace files name (content, lbas);
        expect Block_wire.Write lbas;
        File.write_file fs ~name content = Ok ()
    | Read f -> (
        let name = Printf.sprintf "f%d" f in
        match (Hashtbl.find_opt files name, File.read_file fs ~name) with
        | None, Error File.Not_found_ -> true
        | Some (content, lbas), Ok got ->
            expect Block_wire.Read lbas;
            Bytes.equal content got
        | _ -> false)
    | Delete f -> (
        let name = Printf.sprintf "f%d" f in
        let known = Hashtbl.mem files name in
        release name;
        match File.delete fs name with
        | Ok () -> known
        | Error File.Not_found_ -> not known
        | Error _ -> false)
  in
  let rec go i = function [] -> true | fop :: rest -> step i fop && go (i + 1) rest in
  go 0 fops && Blockdev.disk_access_log disk = List.rev !log

let prop_pooled_path_matches_model =
  QCheck.Test.make ~name:"pooled block path matches the model (plain and sealed)" ~count:100
    (QCheck.make ~print:QCheck.Print.(list print_fop) gen_fops)
    (fun fops ->
      run_against_model File.Plain fops && run_against_model (File.Sealed key) fops)

(* Each misbehaviour, on a device whose pools already recycle buffers of
   every size the file path uses. *)

let warmed mode =
  let dev, disk = make_dev () in
  let fs = File.create ~dev ~mode in
  for i = 0 to 3 do
    ignore (File.write_file fs ~name:"warm" (Bytes.make ((2 * File.chunk fs) + i) 'w'));
    ignore (File.read_file fs ~name:"warm")
  done;
  ignore (File.delete fs "warm");
  Blockdev.disk_clear_log disk;
  (disk, fs)

let write fs name content =
  match File.write_file fs ~name content with
  | Ok () -> ()
  | Error e -> Alcotest.fail (File.error_to_string e)

let read_is what fs name want =
  match (File.read_file fs ~name, want) with
  | Ok got, Ok want -> Helpers.check_bytes what want got
  | Error (File.Integrity _), Error (File.Integrity _) -> ()
  | Error got, Error want when got = want -> ()
  | Ok _, Error _ -> Alcotest.fail (what ^ ": read succeeded")
  | Error e, _ -> Alcotest.fail (what ^ ": " ^ File.error_to_string e)

let integrity = Error (File.Integrity "")
let sealed = File.Sealed key
let reads lbas = List.map (fun lba -> (Block_wire.Read, lba)) lbas

let test_warm_corrupt_block () =
  List.iter
    (fun mode ->
      let disk, fs = warmed mode in
      let content = Bytes.make 1000 'p' in
      write fs "f" content;
      Blockdev.disk_inject disk Blockdev.Corrupt_block;
      let flipped = Bytes.copy content in
      Bytes.set flipped 64 (Char.chr (Char.code 'p' lxor 0xFF));
      read_is "corrupted read" fs "f" (if mode = File.Plain then Ok flipped else integrity);
      read_is "next read clean" fs "f" (Ok content))
    [ File.Plain; sealed ]

let test_warm_wrong_lba () =
  List.iter
    (fun mode ->
      (* b's block holds more than a's: sealed mode must fail closed,
         not open past a's end. *)
      let disk, fs = warmed mode in
      write fs "a" (Bytes.make 1000 'a');
      write fs "b" (Bytes.make 3000 'b');
      Blockdev.disk_clear_log disk;
      Blockdev.disk_inject disk Blockdev.Wrong_lba;
      read_is "remapped read" fs "a" (if mode = File.Plain then Ok (Bytes.make 1000 'b') else integrity);
      read_is "next read clean" fs "a" (Ok (Bytes.make 1000 'a'));
      Alcotest.(check bool) "log keeps the requested lba" true
        (Blockdev.disk_access_log disk = reads [ 0; 0 ]))
    [ File.Plain; sealed ]

let test_warm_lie_response_len () =
  List.iter
    (fun mode ->
      let disk, fs = warmed mode in
      write fs "f" (Bytes.make 5000 'l');
      Blockdev.disk_inject disk Blockdev.Lie_response_len;
      read_is "lying read" fs "f" (Error (File.Io_error "malformed response"));
      read_is "next read clean" fs "f" (Ok (Bytes.make 5000 'l')))
    [ File.Plain; sealed ]

let test_warm_replay_response () =
  (* The replayed response stays queued, so every later reply is one
     behind: its bytes must still be the original response's, although
     the pools have since staged other responses in the same buffers. *)
  List.iter
    (fun mode ->
      let disk, fs = warmed mode in
      let a = Bytes.make 1000 'a' and b = Bytes.make 1000 'b' in
      write fs "a" a;
      write fs "b" b;
      Blockdev.disk_clear_log disk;
      Blockdev.disk_inject disk Blockdev.Replay_response;
      let stale want = if mode = File.Plain then Ok want else integrity in
      read_is "replayed read" fs "a" (Ok a);
      read_is "b gets a's replay" fs "b" (stale a);
      read_is "a gets b's reply" fs "a" (stale b);
      (match File.write_file fs ~name:"c" (Bytes.make 10 'c') with
      | Error (File.Io_error "unexpected data response") -> ()
      | Ok () -> Alcotest.fail "write took a read reply"
      | Error e -> Alcotest.fail (File.error_to_string e));
      read_is "read gets the write's reply" fs "a" (Error (File.Io_error "unexpected write response"));
      Alcotest.(check bool) "access log" true
        (Blockdev.disk_access_log disk = reads [ 0; 1; 0 ] @ [ (Block_wire.Write, 2) ] @ reads [ 0 ]))
    [ File.Plain; sealed ]

let test_sealed_nonce_not_inherited_from_reads () =
  (* Sealed mode opens with the nonce stored in the block (host bytes);
     the next seal must still use lba, version and four zero bytes. *)
  let dev, _ = make_dev () in
  let fs = sealed_fs dev in
  write fs "f" (Bytes.make 100 'f');
  (match read_block dev ~lba:0 with
  | Ok b ->
      Bytes.set_int32_le b 12 0x5a5a5a5al;
      ignore (write_block dev ~lba:0 b)
  | _ -> Alcotest.fail "raw block read failed");
  read_is "tampered nonce" fs "f" integrity;
  write fs "g" (Bytes.make 100 'g');
  match read_block dev ~lba:1 with
  | Ok b -> Alcotest.(check int32) "nonce bytes 8-11" 0l (Bytes.get_int32_le b 12)
  | _ -> Alcotest.fail "raw block read failed"

(* Minor and direct-major words of [f ()], from an empty minor heap: a
   small enough [f] promotes nothing, so its major words are direct
   major allocations only. *)
let allocation f =
  Gc.minor ();
  let _, _, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let r = f () in
  let minor = int_of_float (Gc.minor_words () -. minor0) in
  let _, _, major1 = Gc.counters () in
  (r, minor, int_of_float (major1 -. major0))

let test_warm_plain_roundtrip_allocation () =
  let dev, _ = make_dev () in
  let fs = File.create ~dev ~mode:File.Plain in
  let content = Bytes.init 8208 (fun i -> Char.chr (i land 0xFF)) in
  let op () =
    write fs "f" content;
    match File.read_file fs ~name:"f" with
    | Ok got -> got
    | Error e -> Alcotest.fail (File.error_to_string e)
  in
  for _ = 1 to 10 do
    ignore (op ())
  done;
  let got, minor, major = allocation op in
  Helpers.check_bytes "content" content got;
  let result = Obj.reachable_words (Obj.repr got) in
  Alcotest.(check bool)
    (Printf.sprintf "major words %d <= the returned buffer's %d" major result)
    true (major <= result);
  (* Measured 4 minor words, the two [Ok]s of [read_file]; the bound is
     that plus 10 %, rounded down. Earlier: 186 when inodes were
     rebuilt per write and each block crossing built a closure and its
     reply ([Data (Ok n)]); 1591 minor words and 17480 major words on
     the copying path. *)
  Alcotest.(check bool) (Printf.sprintf "minor words %d <= 4" minor) true (minor <= 4)

(* --- bounded state and allocation on the store path -------------------- *)

let test_access_log_ring () =
  let dev, disk = make_dev () in
  let payload = Bytes.make 16 'x' in
  (* Request [i] writes block [i mod 64] when [i] is even and reads it
     when [i] is odd; the log is compared as (op code, lba) pairs. *)
  let entry i = ((if i land 1 = 0 then Block_wire.op_code Write else Block_wire.op_code Read), i mod 64) in
  let run first last =
    for i = first to last - 1 do
      let lba = i mod 64 in
      if i land 1 = 0 then ignore (write_block dev ~lba payload)
      else ignore (read_block dev ~lba)
    done
  in
  let expect what want =
    Alcotest.(check (list (pair int int)))
      what want
      (List.map (fun (op, lba) -> (Block_wire.op_code op, lba)) (Blockdev.disk_access_log disk))
  in
  let entries first last = List.init (last - first) (fun k -> entry (first + k)) in
  run 0 10;
  expect "oldest first" (entries 0 10);
  Blockdev.disk_clear_log disk;
  expect "cleared" [];
  run 0 4096;
  expect "full" (entries 0 4096);
  run 4096 9000;
  expect "wrapped: the last 4096" (entries (9000 - 4096) 9000);
  Blockdev.disk_clear_log disk;
  run 9000 9003;
  ignore (read_block dev ~lba:100_000);
  expect "cleared past the wrap" (entries 9000 9003 @ [ (Block_wire.op_code Read, 100_000) ])

let store_write store name content =
  match Dual_store.write_file store ~name content with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Dual_store.error_to_string e)

let store_read store name =
  match Dual_store.read_file store ~name with
  | Ok got -> got
  | Error e -> Alcotest.fail (name ^ ": " ^ Dual_store.error_to_string e)

let test_dual_store_varied_sizes () =
  (* The store keeps one sealed-file buffer as long as the largest file
     so far: a smaller file read into it must still open at its own
     size, although the file layer (Plain, a block per chunk) returns
     whole zero-padded blocks. *)
  let store, _ = make_store () in
  let sizes = [| 20_000; 100; 0; Blockdev.block_size + 1 |] in
  let files = Array.length sizes in
  let contents = Array.make files Bytes.empty in
  let name f = Printf.sprintf "f%d" f in
  let check f =
    Helpers.check_bytes (Printf.sprintf "f%d (%d B)" f (Bytes.length contents.(f))) contents.(f)
      (store_read store (name f))
  in
  for round = 0 to files - 1 do
    for f = 0 to files - 1 do
      let size = sizes.((f + round) mod files) in
      contents.(f) <- Bytes.init size (fun i -> Char.chr (((i * 7) + f + round) land 0xFF));
      store_write store (name f) contents.(f);
      check f
    done;
    for f = 0 to files - 1 do
      check f
    done
  done

let test_dual_store_smaller_files_allocation () =
  let store, _ = make_store () in
  let sizes = [ 8192; 3000; 100 ] in
  let content size = Bytes.init size (fun i -> Char.chr (i land 0xFF)) in
  let name size = Printf.sprintf "s%d" size in
  (* One round first, so the device's pools hold buffers of every
     length these files' blocks take. *)
  List.iter (fun size -> store_write store (name size) (content size)) sizes;
  List.iter (fun size -> ignore (store_read store (name size))) sizes;
  store_write store "largest" (content 20_000);
  List.iter
    (fun size ->
      let name = name size and content = content size in
      let got, _, major =
        allocation (fun () ->
            store_write store name content;
            store_read store name)
      in
      Helpers.check_bytes name content got;
      let result = Obj.reachable_words (Obj.repr got) in
      Alcotest.(check bool)
        (Printf.sprintf "%d B: major words %d <= the returned buffer's %d" size major result)
        true (major <= result))
    sizes

let test_dual_store_allocation () =
  let store, _ = make_store () in
  let content = Bytes.init 8192 (fun i -> Char.chr ((i * 13) land 0xFF)) in
  let names = Array.init 8 (Printf.sprintf "bench-%d.dat") in
  Array.iter (fun name -> store_write store name content) names;
  for i = 0 to 15 do
    store_write store names.(i mod 8) content;
    ignore (store_read store names.((i + 5) mod 8))
  done;
  let (), write_minor, write_major = allocation (fun () -> store_write store names.(0) content) in
  let got, read_minor, read_major = allocation (fun () -> store_read store names.(0)) in
  Helpers.check_bytes "content" content got;
  let result = Obj.reachable_words (Obj.repr got) in
  Alcotest.(check bool)
    (Printf.sprintf "major words %d + %d <= the returned buffer's %d" write_major read_major result)
    true
    (write_major + read_major <= result);
  (* Measured 6 + 9 minor words: the closures handed to the compartment
     call and the read's [Ok]s. The bound is that plus 10 %, rounded
     down. Earlier: 12 + 15 when the call built its exit closure per
     crossing; 162 + 94 minor and 1028 + 2054 direct-major words, when
     each write sealed into a fresh buffer, each read took the sealed
     file in a fresh buffer, the AAD was built as a string per call,
     inodes were rebuilt per write and each block crossing built a
     closure and its reply. *)
  Alcotest.(check bool)
    (Printf.sprintf "minor words %d + %d <= 16" write_minor read_minor)
    true
    (write_minor + read_minor <= 16)

let test_dual_store_live_heap_flat () =
  let store, _ = make_store () in
  let content = Bytes.make 1000 'h' in
  let names = Array.init 8 (Printf.sprintf "f%d") in
  Array.iter (fun name -> store_write store name content) names;
  let pair i =
    store_write store names.(i land 7) content;
    ignore (store_read store names.((i + 5) land 7))
  in
  let live_after n =
    for i = 1 to n do
      pair i
    done;
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let n = 10_000 in
  let at_n = live_after n in
  let at_5n = live_after (4 * n) in
  (* One more pair keeps the store live across both readings. *)
  pair 0;
  Alcotest.(check bool)
    (Printf.sprintf "live words %d at %d op pairs, %d at %d: within 1024" at_n n at_5n (5 * n))
    true
    (abs (at_5n - at_n) <= 1024)

let suite =
  suite
  @ [
      Alcotest.test_case "dual store: nonce and AAD formula" `Quick test_dual_store_nonce_aad_formula;
      Helpers.qtest prop_pooled_path_matches_model;
      Alcotest.test_case "pooled path: corrupt block after reuse" `Quick test_warm_corrupt_block;
      Alcotest.test_case "pooled path: wrong lba after reuse" `Quick test_warm_wrong_lba;
      Alcotest.test_case "pooled path: length lie after reuse" `Quick test_warm_lie_response_len;
      Alcotest.test_case "pooled path: replay after reuse" `Quick test_warm_replay_response;
      Alcotest.test_case "pooled path: sealed nonce not inherited from reads" `Quick
        test_sealed_nonce_not_inherited_from_reads;
      Alcotest.test_case "pooled path: plain 8208 B write+read allocation" `Quick
        test_warm_plain_roundtrip_allocation;
      Alcotest.test_case "blockdev: access log keeps the last 4096" `Quick test_access_log_ring;
      Alcotest.test_case "dual store: varied sizes round-trip" `Quick test_dual_store_varied_sizes;
      Alcotest.test_case "dual store: smaller files allocate only the result" `Quick
        test_dual_store_smaller_files_allocation;
      Alcotest.test_case "dual store: 8 KiB write+read allocation" `Quick test_dual_store_allocation;
      Alcotest.test_case "dual store live heap flat" `Slow test_dual_store_live_heap_flat;
    ]

(* The complete §3.3 ternary model for storage.

   Mirrors the network design one-to-one:

     app domain        seals whole files (AEAD bound to name + version
                       kept in app-private state) — the high boundary;
     storage domain    the *quarantined* file layer + block client: it
                       only ever handles ciphertext, and reaching it costs
                       a compartment gate per operation — the analogue of
                       the quarantined network stack;
     host              the disk behind the safe ring — the low boundary.

   Consequences (tested and measured in E9/E18):
   - a hostile disk or a fully compromised file layer can deny service or
     reorder the world, but any wrong bytes fail authentication in the
     app domain;
   - what the lower layers retain is *observability*: which (encrypted)
     file is touched, when, and how big it is — the storage twin of the
     network design's network-level metadata. *)

open Cio_util
open Cio_crypto
open Cio_compartment

(* App-private state per file name: the anti-rollback version and the
   name's nonce prefix (the first bytes of SHA-256 of the name), hashed
   once when the name is first written. *)
type known = { mutable version : int; name_nonce : bytes }

type t = {
  world : Compartment.t;
  app : Compartment.domain;
  store : Compartment.domain;
  fs : File.t;
  key : bytes;
  names : (string, known) Hashtbl.t;  (* app-private: anti-rollback *)
  nonce : bytes;                      (* per-operation nonce *)
  aead : Aead.scratch;                (* per-operation AEAD working memory *)
  meter : Cost.meter;
}

type error = Store_error of File.error | Integrity of string

let error_to_string = function
  | Store_error e -> "store: " ^ File.error_to_string e
  | Integrity s -> "integrity: " ^ s

let create ~dev ~key () =
  if Bytes.length key <> Aead.key_len then invalid_arg "Dual_store.create: bad key size";
  let meter = Blockdev.meter dev in
  let world = Compartment.create ~meter ~crossing:Compartment.Gate () in
  let app = Compartment.add_domain world ~name:"app" in
  let store = Compartment.add_domain world ~name:"storage-stack" in
  (* The quarantined file layer runs in Plain mode: it only ever sees
     ciphertext that the app sealed above it. *)
  let fs = File.create ~dev ~mode:File.Plain in
  {
    world;
    app;
    store;
    fs;
    key;
    names = Hashtbl.create 16;
    nonce = Bytes.create Aead.nonce_len;
    aead = Aead.scratch ();
    meter;
  }

let meter t = t.meter
let crossings t = (Compartment.counters t.world).Compartment.crossings

let enter_store t f = Compartment.call t.world ~caller:t.app ~callee:t.store f

let aad ~name ~version = Bytes.of_string (name ^ "#" ^ string_of_int version)

(* Nonce: the name's nonce prefix with the version over its first four
   bytes. *)
let nonce t ~name_nonce ~version =
  Bytes.blit name_nonce 0 t.nonce 0 Aead.nonce_len;
  Bytes.set_int32_le t.nonce 0 (Int32.of_int version);
  t.nonce

let charge_crypto t nbytes = Cost.charge t.meter Cost.Crypto (Cost.aead_cost Cost.default nbytes)

let write_file t ~name content =
  (* Seal in the app domain: name + fresh version bound into the AAD. *)
  let known = Hashtbl.find_opt t.names name in
  let version, name_nonce =
    match known with
    | Some k -> (k.version + 1, k.name_nonce)
    | None -> (1, Bytes.sub (Sha256.digest_string name) 0 Aead.nonce_len)
  in
  let len = Bytes.length content in
  charge_crypto t len;
  let sealed = Bytes.create (len + Aead.tag_len) in
  Aead.seal_with t.aead ~key:t.key ~nonce:(nonce t ~name_nonce ~version) ~aad:(aad ~name ~version)
    content ~src_off:0 ~len sealed ~dst_off:0;
  match enter_store t (fun () -> File.write_file t.fs ~name sealed) with
  | Ok () ->
      (match known with
      | Some k -> k.version <- version
      | None -> Hashtbl.replace t.names name { version; name_nonce });
      Ok ()
  | Error e -> Error (Store_error e)

let read_file t ~name =
  match Hashtbl.find_opt t.names name with
  | None -> Error (Store_error File.Not_found_)
  | Some { version; name_nonce } -> (
      match enter_store t (fun () -> File.read_file t.fs ~name) with
      | Error e -> Error (Store_error e)
      | Ok sealed -> (
          charge_crypto t (Bytes.length sealed);
          (* Unseal in the app domain against app-private name+version:
             wrong file, stale version or corrupt bytes all land here. *)
          let len = Bytes.length sealed in
          let content = Bytes.create (Int.max 0 (len - Aead.tag_len)) in
          if
            Aead.open_with t.aead ~key:t.key ~nonce:(nonce t ~name_nonce ~version)
              ~aad:(aad ~name ~version) sealed ~src_off:0 ~len content ~dst_off:0
          then Ok content
          else Error (Integrity "file failed authentication (corrupt/swapped/rolled back)")))

let delete t ~name =
  match enter_store t (fun () -> File.delete t.fs name) with
  | Ok () ->
      Hashtbl.remove t.names name;
      Ok ()
  | Error e -> Error (Store_error e)

(* What a fully compromised storage domain can and cannot do: it cannot
   touch app memory (compartment), and anything it fabricates fails the
   app-side unseal — the multi-stage property, storage edition. *)
let rogue_store_reads_app_memory t =
  let secret = Compartment.alloc t.world ~owner:t.app 64 in
  Compartment.write t.world ~as_:t.app secret ~pos:0 (Bytes.of_string "app-secret");
  match Compartment.read t.world ~as_:t.store secret ~pos:0 ~len:10 with
  | _ -> `Leaked
  | exception Compartment.Access_violation _ -> `Denied

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

(* App-private state per file name: the anti-rollback version, the
   name's nonce prefix (the first bytes of SHA-256 of the name), hashed
   once when the name is first written, and its AAD buffer. *)
type known = { mutable version : int; name_nonce : bytes; mutable aad : bytes }

type t = {
  world : Compartment.t;
  app : Compartment.domain;
  store : Compartment.domain;
  fs : File.t;
  key : bytes;
  names : (string, known) Hashtbl.t;  (* app-private: anti-rollback *)
  nonce : bytes;                      (* per-operation nonce *)
  aead : Aead.scratch;                (* per-operation AEAD working memory *)
  mutable sealed : bytes;
      (* the sealed file a write seals into and a read reads into, as
         long as the largest sealed file so far *)
  meter : Cost.meter;
  (* The gate steps, built once for [Compartment.call]: each acts on the
     name and sealed length staged just before the crossing. *)
  mutable op_name : string;
  mutable op_len : int;
  write_step : unit -> (unit, File.error) result;
  read_step : unit -> (int, File.error) result;
  delete_step : unit -> (unit, File.error) result;
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
  let rec t =
    {
      world;
      app;
      store;
      fs;
      key;
      names = Hashtbl.create 16;
      nonce = Bytes.create Aead.nonce_len;
      aead = Aead.scratch ();
      sealed = Bytes.empty;
      meter;
      op_name = "";
      op_len = 0;
      write_step = (fun () -> File.write_sub fs ~name:t.op_name t.sealed ~off:0 ~len:t.op_len);
      read_step = (fun () -> File.read_into fs ~name:t.op_name t.sealed);
      delete_step = (fun () -> File.delete fs t.op_name);
    }
  in
  t

let meter t = t.meter
let crossings t = (Compartment.counters t.world).Compartment.crossings

(* Cross into the storage domain to run [step] on [name]. *)
let enter_store t step ~name =
  t.op_name <- name;
  Compartment.call t.world ~caller:t.app ~callee:t.store step

let rec digits v = if v < 10 then 1 else 1 + digits (v / 10)

let rec put_digits b i v =
  Bytes.set b i (Char.unsafe_chr (Char.code '0' + (v mod 10)));
  if v >= 10 then put_digits b (i - 1) (v / 10)

(* The AAD [name ^ "#" ^ string_of_int version] (versions are positive),
   written over the name's buffer, which is replaced only when the
   version gains a digit. *)
let aad known ~name ~version =
  let len = String.length name + 1 + digits version in
  if Bytes.length known.aad <> len then begin
    known.aad <- Bytes.create len;
    Bytes.blit_string name 0 known.aad 0 (String.length name);
    Bytes.set known.aad (String.length name) '#'
  end;
  put_digits known.aad (len - 1) version;
  known.aad

(* Nonce: the name's nonce prefix with the version over its first four
   bytes. *)
let nonce t ~name_nonce ~version =
  Bytes.blit name_nonce 0 t.nonce 0 Aead.nonce_len;
  Bytes.set_int32_le t.nonce 0 (Int32.of_int version);
  t.nonce

let charge_crypto t nbytes = Cost.charge t.meter Cost.Crypto (Cost.aead_cost Cost.default nbytes)

let write_file t ~name content =
  (* Seal in the app domain: name + fresh version bound into the AAD. *)
  let known =
    match Hashtbl.find t.names name with
    | k -> k
    | exception Not_found ->
        { version = 0; name_nonce = Bytes.sub (Sha256.digest_string name) 0 Aead.nonce_len; aad = Bytes.empty }
  in
  let version = known.version + 1 in
  let len = Bytes.length content in
  let sealed_len = len + Aead.tag_len in
  if Bytes.length t.sealed < sealed_len then t.sealed <- Bytes.create sealed_len;
  charge_crypto t len;
  Aead.seal_with t.aead ~key:t.key ~nonce:(nonce t ~name_nonce:known.name_nonce ~version)
    ~aad:(aad known ~name ~version) content ~src_off:0 ~len t.sealed ~dst_off:0;
  t.op_len <- sealed_len;
  match enter_store t t.write_step ~name with
  | Ok () ->
      if known.version = 0 then Hashtbl.replace t.names name known;
      known.version <- version;
      Ok ()
  | Error e -> Error (Store_error e)

let read_file t ~name =
  match Hashtbl.find t.names name with
  | exception Not_found -> Error (Store_error File.Not_found_)
  | known -> (
      (* Every stored file was sealed into [t.sealed], so it fits. *)
      match enter_store t t.read_step ~name with
      | Error e -> Error (Store_error e)
      | Ok len ->
          charge_crypto t len;
          (* Unseal in the app domain against app-private name+version:
             wrong file, stale version or corrupt bytes all land here. *)
          let version = known.version in
          let content = Bytes.create (Int.max 0 (len - Aead.tag_len)) in
          if
            Aead.open_with t.aead ~key:t.key ~nonce:(nonce t ~name_nonce:known.name_nonce ~version)
              ~aad:(aad known ~name ~version) t.sealed ~src_off:0 ~len content ~dst_off:0
          then Ok content
          else Error (Integrity "file failed authentication (corrupt/swapped/rolled back)"))

let delete t ~name =
  match enter_store t t.delete_step ~name with
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

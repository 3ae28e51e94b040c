(* L5 secure channel session: PSK handshake + protected records.

   This is the mandatory TLS layer of §3.2: it guarantees integrity,
   confidentiality, ordering and replay protection *independently of the
   I/O stack below*, so a compromised stack (or host, or network) that
   replays, reorders, truncates or rewrites the TCP stream produces a
   detectable fatal error rather than wrong application data. Every
   failure is fatal and poisons the session — there is no error-recovery
   path to exploit. *)

open Cio_util
open Cio_crypto

type role = Client | Server

type error =
  | Auth_failed        (* AEAD/MAC verification failed: tamper or replay *)
  | Bad_format of string
  | Bad_state of string
  | Peer_alert

let error_to_string = function
  | Auth_failed -> "authentication failed (tamper/replay/reorder)"
  | Bad_format s -> "malformed input: " ^ s
  | Bad_state s -> "protocol state violation: " ^ s
  | Peer_alert -> "peer sent fatal alert"

type state =
  | Start
  | Wait_server_hello   (* client sent CH *)
  | Wait_client_finished  (* server sent SH + Finished *)
  | Wait_server_finished  (* client sent nothing yet; waiting for server Finished *)
  | Established
  | Dead

type t = {
  role : role;
  psk : bytes;
  psk_id : string;
  rng : Rng.t;
  meter : Cost.meter;
  model : Cost.model;
  splitter : Wire.splitter;
  mutable state : state;
  mutable my_random : bytes;
  mutable peer_random : bytes;
  mutable transcript : Buffer.t;
  mutable keys : Keys.t option;
  mutable send_seq : int;
  mutable recv_seq : int;
  mutable last_error : error option;
  mutable records_sent : int;
  mutable records_received : int;
  (* Handshake records to send, newest first, until [take_flights]. *)
  mutable flights : bytes list;
  (* Per-record scratch: the nonce, the header as authenticated, and the
     AEAD's blocks and MAC state, rewritten by every seal and open. *)
  nonce : bytes;
  aad : bytes;
  aead : Aead.scratch;
}

let create ?(model = Cost.default) ?meter ~role ~psk ~psk_id ~rng () =
  {
    role;
    psk;
    psk_id;
    rng;
    meter = (match meter with Some m -> m | None -> Cost.meter ());
    model;
    splitter = Wire.splitter ();
    state = Start;
    my_random = Bytes.empty;
    peer_random = Bytes.empty;
    transcript = Buffer.create 128;
    keys = None;
    send_seq = 0;
    recv_seq = 0;
    last_error = None;
    records_sent = 0;
    records_received = 0;
    flights = [];
    nonce = Bytes.create Aead.nonce_len;
    aad = Bytes.create Wire.header_len;
    aead = Aead.scratch ();
  }

let is_established t = t.state = Established
let records_sent t = t.records_sent
let records_received t = t.records_received

let kill t err =
  t.state <- Dead;
  t.last_error <- Some err

let die t err =
  kill t err;
  Error err

let send_keys t (k : Keys.t) =
  match t.role with Client -> k.Keys.client | Server -> k.Keys.server

let recv_keys t (k : Keys.t) =
  match t.role with Client -> k.Keys.server | Server -> k.Keys.client

let charge_aead t nbytes = Cost.charge t.meter Cost.Crypto (Cost.aead_cost t.model nbytes)

let record_len len = Wire.header_len + len + Aead.tag_len

(* The largest payload the peer's splitter accepts. A larger one is
   refused before a byte is sealed or a sequence number used. *)
let max_payload = Wire.max_body - Aead.tag_len
let too_large len = Bad_format (Printf.sprintf "payload of %d bytes over the record limit" len)

(* Seal [len] plaintext bytes of [src] from [src_off] as one protected
   record at [dst_off] of [dst]: the header, then the ciphertext and tag.
   The header (with the ciphertext length) is the AAD, so length
   tampering is also caught. *)
let seal_at t k ~ctype src ~src_off ~len dst ~dst_off =
  let dk = send_keys t k in
  Wire.write_header t.aad ~off:0 ~ctype ~len:(len + Aead.tag_len);
  Bytes.blit t.aad 0 dst dst_off Wire.header_len;
  Keys.nonce_into ~iv:dk.Keys.iv ~seq:t.send_seq t.nonce;
  Aead.seal_with t.aead ~key:dk.Keys.key ~nonce:t.nonce ~aad:t.aad src ~src_off ~len dst
    ~dst_off:(dst_off + Wire.header_len);
  charge_aead t len;
  t.send_seq <- t.send_seq + 1;
  t.records_sent <- t.records_sent + 1

let seal_record t ~ctype plaintext =
  match t.keys with
  | None -> Error (Bad_state "no keys yet")
  | Some _ when Bytes.length plaintext > max_payload -> Error (too_large (Bytes.length plaintext))
  | Some k ->
      let len = Bytes.length plaintext in
      let record = Bytes.create (record_len len) in
      seal_at t k ~ctype plaintext ~src_off:0 ~len record ~dst_off:0;
      Ok record

(* Open the record in view [v] into a plaintext buffer of its own. The
   sequence number only advances on success: a replayed or reordered
   record authenticates against the wrong nonce and lands here as
   Auth_failed. *)
let open_record t v =
  match t.keys with
  | None -> Error (Bad_state "protected record before key derivation")
  | Some k ->
      let dk = recv_keys t k and len = v.Wire.len in
      Wire.write_header t.aad ~off:0 ~ctype:v.Wire.kind ~len;
      Keys.nonce_into ~iv:dk.Keys.iv ~seq:t.recv_seq t.nonce;
      charge_aead t len;
      let plaintext = Bytes.create (Int.max 0 (len - Aead.tag_len)) in
      if
        Aead.open_with t.aead ~key:dk.Keys.key ~nonce:t.nonce ~aad:t.aad v.Wire.buf
          ~src_off:v.Wire.off ~len plaintext ~dst_off:0
      then begin
        t.recv_seq <- t.recv_seq + 1;
        t.records_received <- t.records_received + 1;
        Ok plaintext
      end
      else Error Auth_failed

(* Handshake message bodies. *)

let msg_client_hello = 1
let msg_server_hello = 2
let msg_finished = 3

let encode_client_hello t =
  let idb = Bytes.of_string t.psk_id in
  let b = Bytes.create (1 + 32 + 1 + Bytes.length idb) in
  Bytes.set b 0 (Char.chr msg_client_hello);
  Bytes.blit t.my_random 0 b 1 32;
  Bytes.set b 33 (Char.chr (Bytes.length idb));
  Bytes.blit idb 0 b 34 (Bytes.length idb);
  b

let encode_server_hello t =
  let b = Bytes.create 33 in
  Bytes.set b 0 (Char.chr msg_server_hello);
  Bytes.blit t.my_random 0 b 1 32;
  b

let transcript_hash t = Sha256.digest_bytes (Buffer.to_bytes t.transcript)

let finished_body t ~own =
  match t.keys with
  | None -> invalid_arg "finished_body: no keys"
  | Some k ->
      let fk =
        match (t.role, own) with
        | Client, true | Server, false -> k.Keys.client_finished_key
        | Server, true | Client, false -> k.Keys.server_finished_key
      in
      let mac = Keys.finished_mac ~finished_key:fk ~transcript:(transcript_hash t) in
      let b = Bytes.create 33 in
      Bytes.set b 0 (Char.chr msg_finished);
      Bytes.blit mac 0 b 1 32;
      b

let derive_keys t ~client_random ~server_random =
  t.keys <- Some (Keys.derive ~psk:t.psk ~client_random ~server_random);
  Cost.charge t.meter Cost.Crypto (4 * t.model.Cost.aead_base)

(* Client: produce the ClientHello that opens the connection. *)
let initiate t =
  match (t.role, t.state) with
  | Client, Start ->
      t.my_random <- Rng.bytes t.rng 32;
      let ch = encode_client_hello t in
      Buffer.add_bytes t.transcript ch;
      t.state <- Wait_server_hello;
      Ok [ Wire.encode { Wire.ctype = Wire.Handshake; body = ch } ]
  | Client, _ -> die t (Bad_state "initiate called twice")
  | Server, _ -> die t (Bad_state "server cannot initiate")

let handle_client_hello t body =
  if Bytes.length body < 34 then Error (Bad_format "short ClientHello")
  else begin
    let id_len = Char.code (Bytes.get body 33) in
    if Bytes.length body < 34 + id_len then Error (Bad_format "truncated psk id")
    else begin
      let peer_id = Bytes.sub_string body 34 id_len in
      if not (String.equal peer_id t.psk_id) then Error Auth_failed
      else begin
        t.peer_random <- Bytes.sub body 1 32;
        Buffer.add_bytes t.transcript body;
        t.my_random <- Rng.bytes t.rng 32;
        let sh = encode_server_hello t in
        Buffer.add_bytes t.transcript sh;
        derive_keys t ~client_random:t.peer_random ~server_random:t.my_random;
        let sh_record = Wire.encode { Wire.ctype = Wire.Handshake; body = sh } in
        match seal_record t ~ctype:Wire.Handshake (finished_body t ~own:true) with
        | Error e -> Error e
        | Ok fin_record ->
            t.state <- Wait_client_finished;
            Ok [ sh_record; fin_record ]
      end
    end
  end

let handle_server_hello t body =
  if Bytes.length body <> 33 then Error (Bad_format "bad ServerHello length")
  else begin
    t.peer_random <- Bytes.sub body 1 32;
    Buffer.add_bytes t.transcript body;
    derive_keys t ~client_random:t.my_random ~server_random:t.peer_random;
    t.state <- Wait_server_finished;
    Ok []
  end

let verify_finished t plaintext =
  if Bytes.length plaintext <> 33 || Char.code (Bytes.get plaintext 0) <> msg_finished then
    Error (Bad_format "bad Finished message")
  else begin
    let expected = finished_body t ~own:false in
    if Ct.equal (Bytes.sub expected 1 32) (Bytes.sub plaintext 1 32) then Ok () else Error Auth_failed
  end

let push_flights t records = t.flights <- List.rev_append records t.flights

let take_flights t =
  match t.flights with
  | [] -> []
  | newest_first ->
      t.flights <- [];
      List.rev newest_first

let view_body v = Bytes.sub v.Wire.buf v.Wire.off v.Wire.len
let first_byte v = Bytes.get_uint8 v.Wire.buf v.Wire.off

(* One record, in place in the splitter: [None], or the error that is to
   kill the session. Handshake records to send join [flights]; opened
   application data joins [inbox]. *)
let process_record t v inbox =
  match (t.state, v.Wire.kind) with
  | Dead, _ -> Some (Bad_state "session dead")
  | Established, Wire.Data -> (
      match open_record t v with
      | Ok plaintext ->
          Queue.add plaintext inbox;
          None
      | Error e -> Some e)
  | Start, Wire.Handshake
    when t.role = Server && v.Wire.len > 0 && first_byte v = msg_client_hello -> (
      match handle_client_hello t (view_body v) with
      | Ok outs ->
          push_flights t outs;
          None
      | Error e -> Some e)
  | Start, _ -> Some (Bad_state "no handshake yet")
  | Wait_server_hello, Wire.Handshake
    when v.Wire.len > 0 && first_byte v = msg_server_hello -> (
      match handle_server_hello t (view_body v) with Ok _ -> None | Error e -> Some e)
  | Wait_server_finished, Wire.Handshake -> (
      (* Protected server Finished. *)
      match open_record t v with
      | Error e -> Some e
      | Ok plaintext -> (
          match verify_finished t plaintext with
          | Error e -> Some e
          | Ok () -> (
              match seal_record t ~ctype:Wire.Handshake (finished_body t ~own:true) with
              | Error e -> Some e
              | Ok fin ->
                  t.state <- Established;
                  push_flights t [ fin ];
                  None)))
  | Wait_client_finished, Wire.Handshake -> (
      match open_record t v with
      | Error e -> Some e
      | Ok plaintext -> (
          match verify_finished t plaintext with
          | Error e -> Some e
          | Ok () ->
              t.state <- Established;
              None))
  | _, Wire.Alert -> Some Peer_alert
  | _, ct -> Some (Bad_state (Printf.sprintf "unexpected %s record" (Wire.content_name ct)))

let rec process_all t inbox =
  if Wire.next t.splitter then
    match process_record t (Wire.view t.splitter) inbox with
    | None -> process_all t inbox
    | Some e ->
        kill t e;
        t.last_error
  else None

let feed_into t src ~off ~len inbox =
  if t.state = Dead then t.last_error
  else
    match Wire.push t.splitter src ~off ~len with
    | Some e ->
        kill t (Bad_format e);
        t.last_error
    | None -> process_all t inbox

let send_data_into t payload q =
  match (t.state, t.keys) with
  | Established, Some _ when Bytes.length payload > max_payload ->
      Error (too_large (Bytes.length payload))
  | Established, Some k ->
      let len = Bytes.length payload in
      let at = Byteq.extend q (record_len len) in
      seal_at t k ~ctype:Wire.Data payload ~src_off:0 ~len (Byteq.storage q) ~dst_off:at;
      Ok ()
  | Established, None -> Error (Bad_state "no keys yet")
  | _ -> Error (Bad_state "not established")

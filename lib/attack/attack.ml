(* Interface-vulnerability attack harness (E4).

   Each scenario is one §2.5 attack class, aimed at four targets on
   identical substrates:

     virtio-unhardened   the legacy baseline
     virtio-hardened     the retrofitted-checks baseline (Figs. 3/4)
     cionet              the paper's safe-by-construction L2 interface
     dual                cionet + the mandatory L5 record layer

   The harness plants canary secrets adjacent to the attacked buffers,
   runs the scenario and classifies what actually happened. The paper's
   claim reproduced here: the unhardened driver falls to every class;
   hardening stops them with per-operation checks; the safe interface
   makes most of them *unexpressible*; and whatever the host can still do
   at L2 (corrupt/replay payload bytes) is converted by L5 into a fatal,
   fail-closed error — never into wrong application data. *)

open Cio_util
open Cio_mem
open Cio_virtio
open Cio_cionet

type outcome =
  | Leak of string        (* canary bytes escaped into received data *)
  | Corruption of string  (* memory-safety violation in the driver *)
  | Crash of string       (* unhandled fault *)
  | Livelock of string    (* unbounded processing (temporal violation) *)
  | Desync of string      (* wrong data accepted silently *)
  | Confined of string    (* defense confined/rejected it; dataflow intact *)
  | Fail_closed of string (* L5 detected tampering and killed the session *)
  | No_effect

let outcome_name = function
  | Leak _ -> "LEAK"
  | Corruption _ -> "CORRUPTION"
  | Crash _ -> "CRASH"
  | Livelock _ -> "LIVELOCK"
  | Desync _ -> "DESYNC"
  | Confined _ -> "confined"
  | Fail_closed _ -> "fail-closed"
  | No_effect -> "no-effect"

let outcome_detail = function
  | Leak s | Corruption s | Crash s | Livelock s | Desync s | Confined s | Fail_closed s -> s
  | No_effect -> ""

let is_compromise = function
  | Leak _ | Corruption _ | Crash _ | Livelock _ | Desync _ -> true
  | Confined _ | Fail_closed _ | No_effect -> false

type target = Virtio_unhardened | Virtio_hardened | Cionet | Dual

let target_name = function
  | Virtio_unhardened -> "virtio-unhardened"
  | Virtio_hardened -> "virtio-hardened"
  | Cionet -> "cionet"
  | Dual -> "dual-boundary"

let all_targets = [ Virtio_unhardened; Virtio_hardened; Cionet; Dual ]

(* One §2.5 attack class, named by the fault each host model commits. *)
type scenario = {
  sname : string;
  description : string;
  virtio : Device.misbehavior;
  cionet : Host_model.misbehavior;
}

let canary = "CANARY-SECRET-0xDEADBEEF-CANARY-SECRET"

let scenarios =
  [
    {
      sname = "lie-used-len";
      description = "device reports a completion length larger than the posted buffer";
      virtio = Device.Lie_used_len 6000;
      cionet = Host_model.Lie_len 6000;
    };
    {
      sname = "bogus-id";
      description = "device completes a buffer id outside the ring";
      virtio = Device.Bogus_used_id 5000;
      cionet = Host_model.Bad_index 5000;
    };
    {
      sname = "double-fetch-race";
      description = "host rewrites the length field between the driver's two fetches";
      virtio = Device.Race_used_len 6000;
      cionet = Host_model.Race_header 6000;
    };
    {
      sname = "desc-loop";
      description = "host rewrites a descriptor chain into a cycle";
      virtio = Device.Desc_chain_loop;
      cionet = Host_model.Garbage_state 7;
      (* cionet has no chains; the closest expressible corruption is a
         malformed state word, which the stateless slot protocol skips. *)
    };
    {
      sname = "redirect-buffer";
      description = "after DMA, host repoints the descriptor at other memory";
      virtio = Device.Redirect_desc_addr 0;
      cionet = Host_model.Bad_index 3;
    };
    {
      sname = "replay-completion";
      description = "host publishes the same completion twice";
      virtio = Device.Replay_completion;
      cionet = Host_model.Replay_slot;
    };
    {
      sname = "corrupt-payload";
      description = "host flips bits in the delivered payload";
      virtio = Device.Corrupt_payload;
      cionet = Host_model.Corrupt_payload;
    };
    {
      sname = "used-idx-jump";
      description = "device advances used.idx without writing entries (stale reaps)";
      virtio = Device.Jump_used_idx 3;
      cionet = Host_model.Lie_len 0;
      (* cionet has no free-running completion index to lie about; the
         nearest expressible attack is a zero-length payload claim. *)
    };
  ]

let find_scenario name = List.find_opt (fun s -> s.sname = name) scenarios

let contains_canary b =
  let s = Bytes.to_string b in
  let n = String.length s and c = String.length canary in
  (* Look for any 8-byte window of the canary (partial leaks count). *)
  let rec probe i =
    if i + 8 > c then false
    else begin
      let window = String.sub canary i 8 in
      let rec scan j =
        j + 8 <= n && (String.equal (String.sub s j 8) window || scan (j + 1))
      in
      scan 0 || probe (i + 8)
    end
  in
  probe 0

(* --- virtio targets ------------------------------------------------- *)

(* Secret residue in every buffer *except* the one the device will
   legitimately complete (slot 0): reading the slack of your own posted
   buffer is not a leak, reading a neighbour's is. *)
let plant_virtio_canaries transport =
  let region = Transport.region transport in
  let blot = Bytes.of_string canary in
  for slot = 1 to Transport.queue_size transport - 1 do
    Region.guest_write region ~off:(Transport.rx_buf_offset transport slot) blot;
    Region.guest_write region
      ~off:(Transport.rx_buf_offset transport slot + Transport.buf_size transport
           - Bytes.length blot)
      blot
  done;
  for slot = 0 to Transport.queue_size transport - 1 do
    Region.guest_write region ~off:(Transport.tx_buf_offset transport slot) blot
  done

type virtio_driver =
  | Unhardened of Driver_unhardened.t
  | Hardened of Driver_hardened.t

(* What the driver handed up, judged against the one honest frame the
   host was given. *)
type drained = {
  leaked : bool;          (* canary bytes in some frame *)
  duplicates : bool;      (* the honest frame more than once *)
  silently_wrong : bool;  (* honest-sized, canary-free, but not honest *)
  phantom : bool;         (* a frame of the wrong size *)
}

let inspect ~honest frames =
  let is_honest f = Bytes.equal f honest in
  let n = Bytes.length honest in
  {
    leaked = List.exists contains_canary frames;
    duplicates = List.length (List.filter is_honest frames) > 1;
    silently_wrong =
      List.exists
        (fun f -> (not (is_honest f)) && (not (contains_canary f)) && Bytes.length f = n)
        frames;
    phantom = List.exists (fun f -> Bytes.length f <> n) frames;
  }

let virtio_poll = function
  | Unhardened d -> Driver_unhardened.poll d
  | Hardened d -> Driver_hardened.poll d

let run_virtio ~hardened scenario =
  let transport = Transport.create ~name:"attack-virtio" () in
  let sent = ref [] in
  let device =
    Device.create ~rx:(Transport.rx transport) ~tx:(Transport.tx transport)
      ~transmit:(fun f -> sent := f :: !sent)
  in
  let driver =
    if hardened then Hardened (Driver_hardened.create transport)
    else Unhardened (Driver_unhardened.create transport)
  in
  plant_virtio_canaries transport;
  let honest = Bytes.of_string "honest-frame-payload" in
  Device.inject device scenario.virtio;
  Device.deliver_rx device honest;
  Device.poll device;
  let classify_frames () =
    (* Drain everything the driver hands up and inspect it. *)
    let frames = ref [] in
    let rec drain n =
      if n > 0 then begin
        match virtio_poll driver with
        | Some f ->
            frames := f :: !frames;
            drain (n - 1)
        | None -> ()
      end
    in
    drain 8;
    (* Phantom frames are wrong-size frames the defense did not account
       for: stale completions surfacing as receptions. *)
    let { leaked; duplicates; silently_wrong; phantom } = inspect ~honest !frames in
    if leaked then Leak "driver returned adjacent-buffer bytes to the stack"
    else if duplicates then Desync "completion replayed: same frame delivered twice"
    else begin
      match driver with
      | Hardened d ->
          let r = Driver_hardened.rejects d in
          if
            r.Driver_hardened.bad_id > 0 || r.Driver_hardened.not_outstanding > 0
            || r.Driver_hardened.len_clamped > 0 || r.Driver_hardened.runt > 0
          then
            Confined
              (Printf.sprintf "validation rejected it (bad_id=%d stale=%d clamped=%d runt=%d)"
                 r.Driver_hardened.bad_id r.Driver_hardened.not_outstanding
                 r.Driver_hardened.len_clamped r.Driver_hardened.runt)
          else if silently_wrong then Desync "corrupted payload accepted as genuine"
          else if phantom then Desync "phantom completion accepted"
          else No_effect
      | Unhardened _ ->
          if silently_wrong then Desync "corrupted payload accepted as genuine"
          else if phantom then Desync "phantom/stale completion accepted as a reception"
          else if List.exists (Bytes.equal honest) !frames then No_effect
          else Desync "frame lost or mangled"
    end
  in
  match classify_frames () with
  | outcome -> outcome
  | exception Driver_unhardened.Unbounded_work msg -> Livelock msg
  | exception Region.Fault f -> Crash (Fmt.str "%a" Region.pp_fault f)
  | exception Invalid_argument msg -> Corruption ("bounds violation: " ^ msg)

(* --- cionet target --------------------------------------------------- *)

let plant_cionet_canaries driver =
  let region = Driver.region driver in
  let blot = Bytes.of_string canary in
  (* Residue in the RX arena beyond each unit's start, and in the TX
     arena. *)
  let rx_off, rx_size = Ring.data_arena (Driver.rx_ring driver) in
  let tx_off, _ = Ring.data_arena (Driver.tx_ring driver) in
  let cap = Ring.capacity (Driver.rx_ring driver) in
  (* Skip unit 0: that is where the honest message legitimately lands. *)
  let rec blot_at off =
    if off + cap + Bytes.length blot < rx_off + rx_size then begin
      Region.guest_write region ~off:(off + cap) blot;
      Region.guest_write region ~off:(off + (2 * cap) - Bytes.length blot) blot;
      blot_at (off + cap)
    end
  in
  blot_at rx_off;
  Region.guest_write region ~off:tx_off blot

let run_cionet scenario =
  let driver = Driver.create ~name:"attack-cionet" Config.default in
  let host = Host_model.create ~driver ~transmit:(fun _ -> ()) in
  plant_cionet_canaries driver;
  let honest = Bytes.of_string "honest-frame-payload" in
  Host_model.inject host scenario.cionet;
  Host_model.deliver_rx host (Bytes.copy honest);
  Host_model.poll host;
  let frames = ref [] in
  let drain n =
    (* Fixed number of polls: skipped slots return None once but advance
       the cursor, so a few extra polls sweep past them. *)
    for _ = 1 to n do
      match Driver.poll driver with Some f -> frames := f :: !frames | None -> ()
    done
  in
  match drain 8 with
  | () ->
      let c = Ring.counters (Driver.rx_ring driver) in
      let { leaked; duplicates; silently_wrong; phantom } = inspect ~honest !frames in
      if leaked then Leak "safe ring leaked adjacent bytes"
      else if duplicates then
        Desync "slot replayed: same payload delivered twice (L2 cannot distinguish; see dual)"
      else if c.Ring.len_clamped > 0 || c.Ring.index_masked > 0 || c.Ring.state_skipped > 0 then
        Confined
          (Printf.sprintf "confined by construction (clamped=%d masked=%d skipped=%d)"
             c.Ring.len_clamped c.Ring.index_masked c.Ring.state_skipped)
      else if silently_wrong then
        Desync "corrupted payload accepted at L2 (opaque bytes; see dual)"
      else if phantom then Desync "payload-size lie accepted at L2 (opaque bytes; see dual)"
      else No_effect
  | exception Region.Fault f -> Crash (Fmt.str "%a" Region.pp_fault f)
  | exception Invalid_argument msg -> Corruption ("bounds violation: " ^ msg)

(* --- dual target: cionet + mandatory L5 ------------------------------ *)

(* Feed one stream chunk to a session: the records it answers with.
   Opened payloads join [inbox]; an error that kills the session is
   raised as [Failure]. *)
let feed_exn session inbox b =
  match Cio_tls.Session.feed_into session b ~off:0 ~len:(Bytes.length b) inbox with
  | Some e -> raise (Failure (Cio_tls.Session.error_to_string e))
  | None -> Cio_tls.Session.take_flights session

(* The payloads [inbox] holds, oldest first, each in a buffer of its own. *)
let rec take_payloads inbox =
  match Cio_tls.Session.payload_length inbox with
  | -1 -> []
  | len ->
      let b = Bytes.create len in
      ignore (Cio_tls.Session.take_payload inbox b);
      b :: take_payloads inbox

(* The L5 layer rides directly on cionet messages here (one record per
   message) so the experiment isolates the boundary question from TCP. *)
let run_dual scenario =
  let open Cio_tls in
  let rng = Rng.create 99L in
  let psk = Bytes.of_string "attack-harness-psk-32-bytes-long" in
  let tee = Session.create ~role:Session.Server ~psk ~psk_id:"atk" ~rng () in
  let remote = Session.create ~role:Session.Client ~psk ~psk_id:"atk" ~rng () in
  let driver = Driver.create ~name:"attack-dual" Config.default in
  let host = Host_model.create ~driver ~transmit:(fun _ -> ()) in
  plant_cionet_canaries driver;
  (* Handshake through the attacked path: remote -> host -> ring -> tee. *)
  let to_tee wire = Host_model.deliver_rx host wire in
  let inbox = Byteq.create 64 in
  let pump_tee () =
    Host_model.poll host;
    let outs = ref [] in
    let rec drain () =
      match Driver.poll driver with
      | Some frame ->
          outs := !outs @ feed_exn tee inbox frame;
          drain ()
      | None -> ()
    in
    drain ();
    !outs
  in
  let feed_remote wires = List.concat_map (feed_exn remote inbox) wires in
  (try
     (match Session.initiate remote with
     | Ok flight -> List.iter to_tee flight
     | Error _ -> failwith "client initiate failed");
     let replies = pump_tee () in
     List.iter to_tee (feed_remote replies);
     ignore (pump_tee ())
   with Failure _ -> ());
  if not (Session.is_established tee) then Crash "handshake did not complete"
  else begin
    (* Attack the data path. *)
    Host_model.inject host scenario.cionet;
    let secret_msg = Bytes.of_string "application-secret-message" in
    let sealed = Byteq.create 64 in
    (match
       Session.send_data_into remote secret_msg ~off:0 ~len:(Bytes.length secret_msg) sealed
     with Ok () -> () | Error _ -> assert false);
    to_tee (Byteq.take sealed (Byteq.length sealed));
    match
      Host_model.poll host;
      let rec drain n =
        if n > 0 then begin
          match Driver.poll driver with
          | Some frame ->
              ignore (feed_exn tee inbox frame);
              drain (n - 1)
          | None -> ()
        end
      in
      drain 8;
      take_payloads inbox
    with
    | received ->
        let leaked = List.exists contains_canary received in
        let duplicates =
          List.length (List.filter (fun m -> Bytes.equal m secret_msg) received) > 1
        in
        let wrong = List.exists (fun m -> not (Bytes.equal m secret_msg)) received in
        if leaked then Leak "L5 accepted leaked bytes as authentic"
        else if duplicates then Desync "L5 accepted a replay"
        else if wrong then Desync "L5 accepted corrupted data"
        else begin
          let c = Ring.counters (Driver.rx_ring driver) in
          if c.Ring.len_clamped > 0 || c.Ring.index_masked > 0 || c.Ring.state_skipped > 0 then
            Confined "confined at L2; record layer undisturbed"
          else No_effect
        end
    | exception Failure msg -> Fail_closed ("record layer detected tampering: " ^ msg)
    | exception Region.Fault f -> Crash (Fmt.str "%a" Region.pp_fault f)
    | exception Invalid_argument msg -> Corruption ("bounds violation: " ^ msg)
  end

let run scenario target =
  match target with
  | Virtio_unhardened -> run_virtio ~hardened:false scenario
  | Virtio_hardened -> run_virtio ~hardened:true scenario
  | Cionet -> run_cionet scenario
  | Dual -> run_dual scenario

let matrix () =
  List.map (fun s -> (s, List.map (fun t -> (t, run s t)) all_targets)) scenarios

(* --- compromised-I/O-stack experiment (ternary trust model) ---------- *)

(* §3.1's multi-stage argument: even with the I/O stack fully
   compromised, the attacker reaches observability, not application
   data. The rogue stack tries to read an app-domain buffer directly and
   to splice forged bytes into the stream; the compartment denies the
   first and the record layer kills the second. *)
type stack_compromise = {
  direct_read : outcome;   (* rogue stack dereferences app memory *)
  forged_stream : outcome; (* rogue stack fabricates stream bytes *)
}

let run_stack_compromise () =
  let open Cio_compartment in
  let world = Compartment.create ~crossing:Compartment.Gate () in
  let app = Compartment.add_domain world ~name:"app" in
  let io = Compartment.add_domain world ~name:"iostack" in
  let secret_buf = Compartment.alloc world ~owner:app 64 in
  Compartment.write world ~as_:app secret_buf ~pos:0 (Bytes.of_string canary);
  let direct_read =
    match Compartment.read world ~as_:io secret_buf ~pos:0 ~len:64 with
    | _ -> Leak "I/O stack read application memory"
    | exception Compartment.Access_violation msg -> Confined ("compartment denied: " ^ msg)
  in
  (* Forged stream: the rogue stack invents plausible TLS bytes. *)
  let open Cio_tls in
  let rng = Rng.create 123L in
  let psk = Bytes.of_string "attack-harness-psk-32-bytes-long" in
  let tee = Session.create ~role:Session.Server ~psk ~psk_id:"x" ~rng () in
  let remote = Session.create ~role:Session.Client ~psk ~psk_id:"x" ~rng () in
  (* Establish honestly first. *)
  let cat l = List.fold_left Bytes.cat Bytes.empty l in
  let f1 = match Session.initiate remote with Ok o -> cat o | Error _ -> Bytes.empty in
  let inbox = Byteq.create 64 in
  let feed s b =
    ignore (Session.feed_into s b ~off:0 ~len:(Bytes.length b) inbox);
    cat (Session.take_flights s)
  in
  ignore (feed tee (feed remote (feed tee f1)));
  let forged_stream =
    if not (Session.is_established tee) then Crash "handshake failed"
    else begin
      (* The stack knows the record format but not the keys. *)
      let forged =
        Wire.encode { Wire.ctype = Wire.Data; body = Bytes.make 64 '\xAA' }
      in
      match Session.feed_into tee forged ~off:0 ~len:(Bytes.length forged) inbox with
      | Some e -> Fail_closed ("record layer: " ^ Session.error_to_string e)
      | None ->
          if Byteq.length inbox = 0 then No_effect
          else Desync "forged bytes accepted as application data"
    end
  in
  { direct_read; forged_stream }

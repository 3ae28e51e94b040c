(* Store workload: a sealed store over the safe-ring block device,
   alternating whole-file writes and reads of [size]-byte files over
   [files] names.

   [dual] is the library's [Dual_store]. [mirror] rebuilds it from
   [Compartment] + [File] + [Aead] exactly as [Dual_store.create] does,
   so the benchmark can wrap the crypto and the file-layer calls in
   spans; the traced run checks both charge the same cycles. *)

open Cio_util
open Cio_crypto
open Cio_compartment
open Cio_storage
module Span = Perfbench.Span

let files = 8
let blocks = 64
let names = Array.init files (fun i -> Printf.sprintf "bench-%d.dat" i)

type sys = {
  write : string -> bytes -> (unit, string) result;
  read : string -> (bytes, string) result;
  cycles : unit -> int;
}

let key_of ~seed = Rng.bytes (Rng.create (Int64.logxor seed 0x5eed_5e01L)) Aead.key_len

let dual ~seed =
  let dev, _disk = Blockdev.create ~name:"perfbench-disk" ~blocks () in
  let st = Dual_store.create ~dev ~key:(key_of ~seed) () in
  let lift r = Result.map_error Dual_store.error_to_string r in
  {
    write = (fun name content -> lift (Dual_store.write_file st ~name content));
    read = (fun name -> lift (Dual_store.read_file st ~name));
    cycles = (fun () -> Cost.total (Dual_store.meter st));
  }

(* Dual_store, step for step, with the app-side AEAD (nonce derivation
   included) and the compartment call into the file layer in spans of a
   tracer on the unit's meter, [layers] registered first. *)
let mirror ~seed ~layers =
  let dev, _disk = Blockdev.create ~name:"perfbench-disk" ~blocks () in
  let key = key_of ~seed in
  let meter = Blockdev.meter dev in
  let tracer = Span.create ~cycles:(fun () -> Cost.total meter) () in
  List.iter (fun l -> ignore (Span.layer tracer l)) layers;
  let l_aead = Span.layer tracer "crypto.aead" and l_file = Span.layer tracer "storage.file" in
  let span l f = Span.span tracer l f in
  let world = Compartment.create ~meter ~crossing:Compartment.Gate () in
  let app = Compartment.add_domain world ~name:"app" in
  let store = Compartment.add_domain world ~name:"storage-stack" in
  let fs = File.create ~dev ~mode:File.Plain in
  let versions = Hashtbl.create 16 in
  let enter_store f = Compartment.call world ~caller:app ~callee:store f in
  let aad ~name ~version = Bytes.of_string (Printf.sprintf "%s#%d" name version) in
  let nonce_of ~name ~version =
    let n = Bytes.sub (Sha256.digest_string name) 0 Aead.nonce_len in
    Bytes.set_int32_le n 0 (Int32.of_int version);
    n
  in
  let charge_crypto nbytes = Cost.charge meter Cost.Crypto (Cost.aead_cost Cost.default nbytes) in
  let write name content =
    let version = 1 + Option.value ~default:0 (Hashtbl.find_opt versions name) in
    let sealed =
      span l_aead (fun () ->
          charge_crypto (Bytes.length content);
          Aead.seal ~key ~nonce:(nonce_of ~name ~version) ~aad:(aad ~name ~version) content)
    in
    match span l_file (fun () -> enter_store (fun () -> File.write_file fs ~name sealed)) with
    | Ok () ->
        Hashtbl.replace versions name version;
        Ok ()
    | Error e -> Error ("store: " ^ File.error_to_string e)
  in
  let read name =
    match Hashtbl.find_opt versions name with
    | None -> Error "store: file not found"
    | Some version -> (
        match span l_file (fun () -> enter_store (fun () -> File.read_file fs ~name)) with
        | Error e -> Error ("store: " ^ File.error_to_string e)
        | Ok sealed -> (
            let opened =
              span l_aead (fun () ->
                  charge_crypto (Bytes.length sealed);
                  Aead.open_ ~key ~nonce:(nonce_of ~name ~version) ~aad:(aad ~name ~version)
                    sealed)
            in
            match opened with
            | Some content -> Ok content
            | None -> Error "integrity: file failed authentication"))
  in
  ({ write; read; cycles = (fun () -> Cost.total meter) }, tracer)

(* One expected-content buffer per name, random from the seed. A write
   stamps the op number into its first eight bytes; a read must return
   the buffer byte for byte. *)
let contents ~seed ~size =
  let rng = Rng.create (Int64.logxor seed 0x5eed_f11eL) in
  Array.init files (fun _ -> Rng.bytes rng size)

let populate sys contents =
  Array.iteri
    (fun i name ->
      match sys.write name contents.(i) with
      | Ok () -> ()
      | Error e -> failwith ("store: initial write failed: " ^ e))
    names

(* Op [2k] writes file [k mod files]; op [2k+1] reads a file written
   three writes earlier, so reads never hit the file just written. *)
let run sys ~contents ~every ~stop =
  let latencies = Perfbench.Stats.samples () in
  let issued = ref 0 and completed = ref 0 and failed = ref 0 and errors = ref [] in
  let digest = ref 0l and fixed_cycles = ref (-1) and heap_top = ref 0 in
  let c0 = sys.cycles () in
  let w0 = Gc.minor_words () in
  let clock = Window.start ~every in
  let fail e =
    incr failed;
    Window.note_error errors e
  in
  while Window.may_issue stop ~issued:!issued ~completed:!completed do
    let op = !issued in
    incr issued;
    let k = op / 2 in
    let ok =
      if op land 1 = 0 then begin
        let i = k mod files in
        let content = contents.(i) in
        Bytes.set_int64_le content 0 (Int64.of_int op);
        let start = Window.elapsed clock in
        let r = sys.write names.(i) content in
        let stop = Window.elapsed clock in
        match r with
        | Ok () ->
            Perfbench.Stats.add latencies (stop - start);
            true
        | Error e ->
            fail ("write: " ^ e);
            false
      end
      else begin
        let i = (k + files - 3) mod files in
        let start = Window.elapsed clock in
        let r = sys.read names.(i) in
        let stop = Window.elapsed clock in
        match r with
        | Ok got when Bytes.equal got contents.(i) ->
            Perfbench.Stats.add latencies (stop - start);
            digest := Crc32.update !digest got ~pos:0 ~len:(Bytes.length got);
            true
        | Ok _ ->
            fail (Printf.sprintf "read of %s returned other bytes" names.(i));
            false
        | Error e ->
            fail ("read: " ^ e);
            false
      end
    in
    if ok then begin
      incr completed;
      if !completed = Window.fixed_ops then begin
        fixed_cycles := sys.cycles () - c0;
        heap_top := Window.heap_top_words ()
      end;
      Window.tick clock ~completed:!completed
    end
  done;
  let cycles = sys.cycles () - c0 in
  Window.finish clock ~w0 ~issued:!issued ~completed:!completed ~failed:!failed ~errors:!errors
    ~latencies ~cycles
    ~fixed_cycles:(if !fixed_cycles < 0 then cycles else !fixed_cycles)
    ~heap_top_words:(if !heap_top = 0 then Window.heap_top_words () else !heap_top)
    ~digest:!digest ~sim_end_ns:0L

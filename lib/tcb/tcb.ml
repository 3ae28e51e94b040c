(* TCB accounting — the "TCB" axis of Figure 5 — and the one table that
   says which code is trusted.

   Threat model (the paper's ternary one): three actors run code in this
   repository.

   - The guest: the confidential VM. Its code is trusted with application
     data to a degree that depends on where the configuration puts the
     boundary; every guest file belongs to one named component.
   - The host: the hypervisor and its device back ends. It is the
     adversary. Its models exist to attack the guest, so they are in no
     TCB and the guest interface-safety rules do not apply to them.
   - The harness: the simulated world around both (network, clock,
     remote peer, experiments, tooling). It would not exist in a real
     deployment, so it is in no TCB either.

   [table] maps every [lib/**/*.ml] to exactly one role: a directory
   entry sets the default for the files directly in it, a file entry
   overrides it. Figure 5 / E6 count a component's lines from the files
   the table gives it, and cio_lint gates exactly the guest files. *)

type component =
  | Tcpip_stack
  | Virtio_queue
  | Virtio_unhardened
  | Virtio_hardened
  | Virtio_packed
  | Cionet_driver
  | Tunnel
  | Tls
  | Crypto
  | Compartment_runtime
  | L5_channel
  | Dual_unit
  | Mem_protection
  | Overload_plane
  | Storage
  | Dda
  | Util

let component_name = function
  | Tcpip_stack -> "tcpip-stack"
  | Virtio_queue -> "virtio-queue"
  | Virtio_unhardened -> "virtio-unhardened"
  | Virtio_hardened -> "virtio-hardened"
  | Virtio_packed -> "virtio-packed"
  | Cionet_driver -> "cionet-driver"
  | Tunnel -> "tunnel"
  | Tls -> "tls"
  | Crypto -> "crypto"
  | Compartment_runtime -> "compartment-runtime"
  | L5_channel -> "l5-channel"
  | Dual_unit -> "dual-unit"
  | Mem_protection -> "mem-protection"
  | Overload_plane -> "overload-plane"
  | Storage -> "storage"
  | Dda -> "dda"
  | Util -> "util"

type role = Guest of component | Host_model | Harness

let table =
  [
    (* host: a malicious hypervisor driving the attack matrices *)
    ("lib/attack", Host_model);
    (* guest: the cionet driver, its ring, config page, watchdog and multi-queue *)
    ("lib/cionet", Guest Cionet_driver);
    (* host: the hypervisor's side of the cionet ring *)
    ("lib/cionet/host_model.ml", Host_model);
    (* guest: the intra-TEE compartment gate *)
    ("lib/compartment", Guest Compartment_runtime);
    (* harness: configuration wiring, the testbed and the remote echo peer *)
    ("lib/core", Harness);
    (* guest: the TLS record channel over one TCP connection *)
    ("lib/core/channel.ml", Guest L5_channel);
    (* guest: the dual-boundary unit that wires driver, stack and gate *)
    ("lib/core/dual.ml", Guest Dual_unit);
    (* guest (tunneled): the LightBox-style frame sealer *)
    ("lib/core/tunnel.ml", Guest Tunnel);
    (* guest: ChaCha20-Poly1305, SHA-256, HMAC, HKDF *)
    ("lib/crypto", Guest Crypto);
    (* harness: the CVE and hardening-commit datasets of Figures 2-4 *)
    ("lib/data", Harness);
    (* guest (E10): the TEE's SPDM verifier and IDE endpoint, with the device they attest *)
    ("lib/dda", Guest Dda);
    (* harness: the experiment registry *)
    ("lib/experiments", Harness);
    (* harness: fault plans, campaigns and load generators *)
    ("lib/fault", Harness);
    (* guest: Ethernet/IPv4/TCP codecs of the in-TEE stack *)
    ("lib/frame", Guest Tcpip_stack);
    (* harness: the interface-safety linter *)
    ("lib/lint", Harness);
    (* guest: shared-memory regions and buffer pools, the boundary itself *)
    ("lib/mem", Guest Mem_protection);
    (* host: the one-shot fault queue every host device model shares *)
    ("lib/mem/host_fault.ml", Host_model);
    (* harness: the simulated network, clock and switch *)
    ("lib/netsim", Harness);
    (* host: the on-path network adversary *)
    ("lib/netsim/adversary.ml", Host_model);
    (* harness: the host-observability tap and recovery counters *)
    ("lib/observe", Harness);
    (* guest: admission, breakers and retry budgets on the datapath *)
    ("lib/overload", Guest Overload_plane);
    (* guest: the block client, file layer and sealed store *)
    ("lib/storage", Guest Storage);
    (* harness: this table and the line counter *)
    ("lib/tcb", Harness);
    (* guest: the in-TEE TCP/IP stack *)
    ("lib/tcpip", Guest Tcpip_stack);
    (* harness: traces and metrics *)
    ("lib/telemetry", Harness);
    (* guest: the TLS 1.3-shaped session *)
    ("lib/tls", Guest Tls);
    (* guest: byte queues, the cost meter and small helpers *)
    ("lib/util", Guest Util);
    (* guest: the split virtqueue layout both legacy drivers share *)
    ("lib/virtio", Guest Virtio_queue);
    (* host: the virtio device back end *)
    ("lib/virtio/device.ml", Host_model);
    (* guest (hardened-virtio): the retrofitted-checks driver *)
    ("lib/virtio/driver_hardened.ml", Guest Virtio_hardened);
    (* guest (passthrough-l2): the trusting legacy driver; cio_lint's corpus *)
    ("lib/virtio/driver_unhardened.ml", Guest Virtio_unhardened);
    (* guest (E15): the packed virtqueue, driver and device *)
    ("lib/virtio/packed.ml", Guest Virtio_packed);
  ]

let role rel =
  match List.assoc_opt rel table with
  | Some r -> r
  | None -> (
      match List.assoc_opt (Filename.dirname rel) table with
      | Some r -> r
      | None -> invalid_arg ("Tcb.role: no role for " ^ rel))

(* Every [.ml] under [root]/lib, repo-relative, in path order. Raises
   [Sys_error] when [root] holds no lib tree. *)
let ml_files ~root =
  let rec go rel_dir =
    let entries = Sys.readdir (Filename.concat root rel_dir) in
    Array.sort compare entries;
    Array.to_list entries
    |> List.concat_map (fun entry ->
           let rel = Filename.concat rel_dir entry in
           if Sys.is_directory (Filename.concat root rel) then go rel
           else if Filename.check_suffix entry ".ml" then [ rel ]
           else [])
  in
  go "lib"

let repo_root = ref "."

let set_repo_root p = repo_root := p

let files c = List.filter (fun rel -> role rel = Guest c) (ml_files ~root:!repo_root)

let count_lines path =
  In_channel.with_open_text path (fun ic ->
      let rec go n = match In_channel.input_line ic with Some _ -> go (n + 1) | None -> n in
      go 0)

let loc c =
  List.fold_left (fun acc rel -> acc + count_lines (Filename.concat !repo_root rel)) 0 (files c)

let sum cs = List.fold_left (fun acc c -> acc + loc c) 0 cs

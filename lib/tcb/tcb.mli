(** TCB accounting (Figure 5 / E6) and the file-role table: which actor
    runs each [lib/**/*.ml], and for guest code, which component it
    belongs to. [cio_lint] reads the same table to decide what it gates.
    Which components a configuration trusts is decided next to its wiring,
    in [Cio_core.Configurations.tcb]. *)

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

val component_name : component -> string

type role =
  | Guest of component  (** runs in the confidential VM *)
  | Host_model  (** plays the untrusted host: in no TCB *)
  | Harness  (** the simulated world and tooling: in no TCB *)

val table : (string * role) list
(** Repo-relative directory entries (the default for the [.ml] files
    directly in them) and file entries (overrides). *)

val role : string -> role
(** The role of a repo-relative [.ml] path; raises [Invalid_argument] when
    neither the file nor its directory has an entry. *)

val ml_files : root:string -> string list
(** Every [.ml] under [root]/lib, repo-relative, in path order. Raises
    [Sys_error] when there is no such tree. *)

val set_repo_root : string -> unit
(** Directory containing [lib/]; defaults to ["."]. *)

val files : component -> string list
(** The component's files under the repo root, in path order. *)

val loc : component -> int
(** Lines of OCaml in a component, counted from the repo root's tree;
    raises [Sys_error] when the tree is missing. *)

val sum : component list -> int

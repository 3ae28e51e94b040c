(** One shared vocabulary for boundary and event names.

    Every tap, trace category and metric prefix that names a boundary or
    a host-visible event kind takes its string from here. A typo in a
    free-floating literal silently miscounts (two taps that should share
    a bucket stop sharing it); a typo against this module is a compile
    error. *)

(** {1 Boundary / trace categories} *)

val l2 : string
(** The host<->TEE device boundary (cionet rings, doorbells). *)

val l5 : string
(** The intra-TEE compartment boundary (gate crossings, TLS handoffs). *)

val tcp : string
(** The quarantined transport layer. *)

val fault : string
(** Fault injection / detection / recovery. *)

val experiment : string
(** Per-experiment scopes in the harness. *)

(** {1 Tap event kinds (the host-observability vocabulary)} *)

val dir_out : string
val dir_in : string

val frame : string
val tunnel : string

val tap : base:string -> dir:string -> string
(** [tap ~base ~dir] is ["<base>-<dir>"], e.g. ["frame-out"]. *)

val kick : string
val irq : string
val sys_send : string
val sys_recv : string
val sys_recv_data : string

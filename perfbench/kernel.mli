(** The reference kernel the benchmark times beside the workload, to
    calibrate wall time against the speed the shared core gives the
    process at that moment.

    Changing this kernel rescales [cal_ops_per_s] for every build: leave
    it as it is. *)

val block : key:bytes -> nonce:bytes -> counter:int32 -> bytes
(** One ChaCha20 block (RFC 8439 §2.3.2), the kernel's unit of work. *)

val blocks : int
(** Blocks per {!run}: 16, a kilobyte of key stream. *)

val run : unit -> unit
(** One run of the kernel: {!blocks} blocks under a fixed key and nonce. *)

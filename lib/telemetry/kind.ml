(* The single home of boundary and event-kind names. driver.ml,
   host_model.ml, dual.ml, configurations.ml and the experiments all
   used to spell these as scattered literals; a mistyped kind silently
   split or merged observability buckets. *)

let l2 = "l2"
let l5 = "l5"
let tcp = "tcp"
let fault = "fault"
let experiment = "experiment"

let dir_out = "out"
let dir_in = "in"

let frame = "frame"
let tunnel = "tunnel"

let tap ~base ~dir = base ^ "-" ^ dir

let kick = "kick"
let irq = "irq"
let sys_send = "sys-send"
let sys_recv = "sys-recv"
let sys_recv_data = "sys-recv-data"

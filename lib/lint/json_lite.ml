(* The JSON reader/writer lives in [Cio_util.Json_lite]; this re-export
   keeps the [Cio_lintlib.Json_lite] path that perfbench's tests are
   written against. *)
include Cio_util.Json_lite

(** Deterministic network adversary (drop / duplicate / corrupt / reorder /
    replay) installable as a {!Link.tamper}. *)

open Cio_util

type profile = {
  drop : float;
  duplicate : float;
  corrupt : float;
  reorder : float;
  replay : float;
  extra_delay_ns : int64;
}

val benign : profile
val hostile : profile

type stats = {
  mutable seen : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable reordered : int;
  mutable replayed : int;
}

type t

val create : rng:Rng.t -> profile -> t
val stats : t -> stats

val tamper : t -> Link.tamper

val install : t -> Link.t -> src:Link.endpoint -> unit

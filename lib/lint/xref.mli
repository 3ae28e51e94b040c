(** The typed cross-reference index: which compilation units reference
    each value a [lib] interface exports, read from the [.cmt]/[.cmti]
    files of a [dune build @check], and the two export rules gated on it.
    See DESIGN.md §9. *)

type export = {
  x_unit : string;  (** compilation unit, e.g. [Cio_tls__Session] *)
  x_mli : string;  (** repo-relative interface, e.g. [lib/tls/session.mli] *)
  x_value : string;  (** the exported value's name *)
}

type index = (export * string list) list
(** Each export, in order, with the repo-relative source files that
    reference it (its own implementation included), sorted. *)

val read : root:string -> index
(** Index the typed trees under [root/_build/default], or under [root]
    itself when that directory does not exist (inside dune's build
    context). Raises [Sys_error] when there is no such tree. *)

type rule =
  | Dead_export  (** no other compilation unit references it *)
  | Test_only_export
      (** a dual-boundary core export only tests reference *)

val rule_name : rule -> string

type finding = { rule : rule; export : export }

val core : Cio_tcb.Tcb.component list
(** The components [Test_only_export] applies to: the dual-boundary
    configuration's core. *)

val is_production : string -> bool
(** A file under [lib], [bin], [bench], [examples] or [perfbench];
    anything else (the [test] tree) is a test caller. *)

val check : index -> finding list
(** The findings, in index order. A reference from the export's own
    implementation counts for neither rule. *)

val pp_report : Format.formatter -> index * finding list -> unit

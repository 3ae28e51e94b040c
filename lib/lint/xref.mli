(** The typed cross-reference index: which compilation units reference
    each value a [lib] interface exports, and how each direct application
    supplies its optional parameters, read from the [.cmt]/[.cmti] files
    of a [dune build @check]; and the four rules gated on it. See
    DESIGN.md §9. *)

type export = {
  x_unit : string;  (** compilation unit, e.g. [Cio_tls__Session] *)
  x_mli : string;  (** repo-relative interface, e.g. [lib/tls/session.mli] *)
  x_value : string;  (** the exported value's name *)
  x_knobs : string list;  (** its optional parameters, in order *)
}

(** How an application supplies an optional parameter [?x]. *)
type supply =
  | Value  (** [~x:v] *)
  | Pass_through  (** [?x:o], an option passed on as it is *)

type use =
  | Reference  (** not a direct application: may supply any knob, or leave it out *)
  | Application of (string * supply) list
      (** a direct application, with the optional parameters it supplies *)

type index = (export * (string * use) list) list
(** Each export, in order, with every use of it: the repo-relative source
    file and how it uses the export, sorted. *)

val read : root:string -> index
(** Index the typed trees under [root/_build/default], or under [root]
    itself when that directory does not exist (inside dune's build
    context). Raises [Sys_error] when there is no such tree. *)

type rule =
  | Dead_export  (** no other compilation unit references it *)
  | Test_only_export
      (** a dual-boundary core export only tests reference *)
  | Unset_knob  (** no use supplies the optional parameter: a constant *)
  | Always_set_knob
      (** every production use passes [~x:v]: its default never runs in
          production, so it should be required *)

val rule_name : rule -> string

type finding = { rule : rule; export : export; knob : string option }

val core : Cio_tcb.Tcb.component list
(** The components [Test_only_export] applies to: the dual-boundary
    configuration's core. *)

val is_production : string -> bool
(** A file under [lib], [bin], [bench], [examples] or [perfbench];
    anything else (the [test] tree) is a test caller. *)

val check : index -> finding list
(** The findings, in index order. A reference from the export's own
    implementation counts for neither export rule. A pass-through
    counts as supplying its knob for [Unset_knob] but not for
    [Always_set_knob]; test uses count only for [Unset_knob]. *)

val pp_report : Format.formatter -> index * finding list -> unit

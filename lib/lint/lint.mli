(** cio_lint: interface-safety analyzer over this repository's own OCaml
    sources, encoding the Figure 3/4 hardening-commit taxonomy as
    checkable rules. See DESIGN.md §9 for the rule-to-category mapping
    and worked examples. *)

type rule =
  | DF  (** double fetch of shared memory -> "add copies" *)
  | UV  (** unvalidated device-controlled value -> "add checks" *)
  | UW  (** unbounded work over device-written state -> "design changes" *)
  | UC  (** unsafe code in a trusted component -> "add checks" *)
  | SI  (** stateless-interface drift -> "design changes" *)

val rule_of_name : string -> rule option

val rule_category : rule -> Cio_data.Hardening.category
(** The Figure 3/4 hardening-commit category a finding of this rule would
    eventually be fixed by. *)

type role =
  | Trusted  (** guest code: every [Tcb.Guest] file except the corpus *)
  | Corpus  (** intentionally-vulnerable living test corpus *)
  | Host_model  (** plays the adversary; guest-side rules do not apply *)
  | Harness  (** the simulated world and tooling; not scanned *)

val role_name : role -> string
val classify : string -> role
(** Classify a repo-relative [.ml] path from [Cio_tcb.Tcb.table]; raises
    [Invalid_argument] on a path the table does not cover. *)

type finding = {
  f_rule : rule;
  f_file : string;
  f_func : string;
  f_line : int;
  f_detail : string;
  f_role : role;
}

val key : finding -> string
(** Line-number-free identity used for baseline comparison. *)

val scan_file : root:string -> string -> finding list
(** Analyze one repo-relative [.ml] file. Host-model and harness files
    yield []. *)

val scan : root:string -> finding list
(** Analyze every [.ml] under [root]/lib, in path order. *)

val pp_finding : Format.formatter -> finding -> unit
val pp_findings : Format.formatter -> finding list -> unit
val to_json : finding list -> Json_lite.t

(** {2 Baseline and the two-sided CI gate} *)

type baseline_entry = { b_key : string; b_file : string; b_rule : string }

val load_baseline : string -> baseline_entry list
(** Raises [Failure] on a malformed or wrong-schema baseline. *)

val corpus_min_findings : int
val corpus_min_categories : int

type gate_result = {
  g_new_trusted : finding list;
  g_corpus_missing : baseline_entry list;
  g_corpus_count : int;
  g_corpus_categories : int;
  g_ok : bool;
}

val gate : baseline:baseline_entry list -> finding list -> gate_result
(** Two-sided: fails on any new trusted-component finding (hardening must
    not regress) and on any vanished corpus finding (the rules must not
    regress — [driver_unhardened.ml] is the living test corpus). *)

val pp_gate : Format.formatter -> gate_result -> unit

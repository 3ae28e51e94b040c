(* cio-lint: run the interface-safety analyzer over the repository.

     cio-lint                      text report over ./lib
     cio-lint --json               machine-readable report (cio-lint-v1)
     cio-lint --baseline FILE      two-sided gate against a committed baseline
     cio-lint --update-baseline F  rewrite the baseline from the current scan
     cio-lint --exports            export gate over the typed trees of a
                                   [dune build @check] (exit 1 on a finding)

   The gate is two-sided: it fails on any *new* finding in a trusted
   component (hardening must not regress) and it fails if the living
   corpus (driver_unhardened.ml) stops producing its recorded findings
   (the rules must not regress).

   The export gate is separate and has no baseline: every [lib] export
   must be referenced by another compilation unit ([dead-export]), and
   every export of the dual-boundary core by production code
   ([test-only-export]). *)

open Cmdliner
module Lint = Cio_lintlib.Lint
module Json = Cio_lintlib.Json_lite
module Xref = Cio_lintlib.Xref

let root_arg =
  let doc = "Repository root (the directory holding the lib tree)." in
  Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc)

let json_arg =
  let doc = "Emit the report as JSON (schema cio-lint-v1) on stdout." in
  Arg.(value & flag & info [ "json" ] ~doc)

let baseline_arg =
  let doc = "Gate against a committed baseline file; exit 1 on gate failure." in
  Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)

let update_arg =
  let doc = "Write the current scan to $(docv) as the new baseline and exit." in
  Arg.(value & opt (some string) None & info [ "update-baseline" ] ~docv:"FILE" ~doc)

let rules_arg =
  let doc = "Only report these comma-separated rules (DF,UV,UW,UC,SI)." in
  Arg.(value & opt (some string) None & info [ "rules" ] ~docv:"RULES" ~doc)

let exports_arg =
  let doc =
    "Run the export gate instead: index the .cmt/.cmti files of a dune build @check under \
     ROOT/_build/default and report every dead-export and test-only-export; exit 1 on any."
  in
  Arg.(value & flag & info [ "exports" ] ~doc)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let run_exports root =
  let index = Xref.read ~root in
  let findings = Xref.check index in
  Xref.pp_report Fmt.stdout (index, findings);
  if findings = [] then 0 else 1

let run root json baseline update rules =
  let findings = Lint.scan ~root in
  let findings =
    match rules with
    | None -> findings
    | Some spec ->
        let wanted = List.filter_map Lint.rule_of_name (String.split_on_char ',' spec) in
        if wanted = [] then begin
          Fmt.epr "no valid rules in --rules %s@." spec;
          exit 2
        end;
        List.filter (fun f -> List.mem f.Lint.f_rule wanted) findings
  in
  match update with
  | Some path ->
      write_file path (Json.to_string (Lint.to_json findings) ^ "\n");
      Fmt.pr "wrote %d finding(s) to %s@." (List.length findings) path;
      0
  | None -> (
      if json then print_string (Json.to_string (Lint.to_json findings) ^ "\n")
      else Lint.pp_findings Fmt.stdout findings;
      match baseline with
      | None -> 0
      | Some path -> (
          match Lint.load_baseline path with
          | exception Failure msg ->
              Fmt.epr "baseline error: %s@." msg;
              2
          | exception Sys_error msg ->
              Fmt.epr "baseline error: %s@." msg;
              2
          | baseline ->
              let g = Lint.gate ~baseline findings in
              Lint.pp_gate Fmt.stderr g;
              if g.Lint.g_ok then 0 else 1))

let main =
  let doc = "interface-safety lint over the cio simulator sources (Fig. 3/4 taxonomy as rules)" in
  Cmd.v
    (Cmd.info "cio-lint" ~version:"1.0.0" ~doc)
    Term.(
      const (fun root json baseline update rules exports ->
          if exports then run_exports root else run root json baseline update rules)
      $ root_arg $ json_arg $ baseline_arg $ update_arg $ rules_arg $ exports_arg)

let () = exit (Cmd.eval' main)

(* cio-lint: run the interface-safety analyzer over the repository.

     cio-lint                      text report over ./lib
     cio-lint --json               machine-readable report (cio-lint-v1)
     cio-lint --baseline FILE      two-sided gate against a committed baseline
     cio-lint --update-baseline F  rewrite the baseline from the current scan

   The gate is two-sided: it fails on any *new* finding in a trusted
   component (hardening must not regress) and it fails if the living
   corpus (driver_unhardened.ml) stops producing its recorded findings
   (the rules must not regress). *)

open Cmdliner
module Lint = Cio_lintlib.Lint
module Json = Cio_lintlib.Json_lite

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

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

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
    Term.(const run $ root_arg $ json_arg $ baseline_arg $ update_arg $ rules_arg)

let () = exit (Cmd.eval' main)

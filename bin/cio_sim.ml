(* cio-sim: command-line driver for the reproduction experiments.

     cio-sim list            enumerate experiments
     cio-sim run fig5 e2     run selected experiments
     cio-sim all             run everything
     cio-sim trace e2        run one experiment with tracing on and write
                             a Chrome trace_event JSON (about://tracing)
     cio-sim campaign        run the composed-fault overload campaign

   The output of `all`, `campaign` and `trace e2` / `trace e16` is kept
   as golden files under test/golden/, which `dune runtest` diffs.
*)

open Cmdliner

let setup_tcb repo_root = Cio_tcb.Tcb.set_repo_root repo_root

let repo_root_arg =
  let doc = "Repository root (for live TCB line counting)." in
  Arg.(value & opt string "." & info [ "repo-root" ] ~docv:"DIR" ~doc)

let list_cmd =
  let run () =
    List.iter
      (fun (id, title, _) -> Fmt.pr "%-6s %s@." id title)
      Cio_experiments.Experiments.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments") Term.(const run $ const ())

let run_cmd =
  let ids =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (see list).")
  in
  let run repo_root ids =
    setup_tcb repo_root;
    let ok =
      List.for_all
        (fun id ->
          if Cio_experiments.Experiments.run_one Fmt.stdout id then true
          else begin
            Fmt.epr "unknown experiment id: %s@." id;
            false
          end)
        ids
    in
    if ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run selected experiments")
    Term.(const run $ repo_root_arg $ ids)

let all_cmd =
  let run repo_root =
    setup_tcb repo_root;
    Cio_experiments.Experiments.run_all Fmt.stdout ();
    0
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment") Term.(const run $ repo_root_arg)

let trace_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id (see list).")
  in
  let out_arg =
    let doc = "Output file for the Chrome trace_event JSON (default trace-<ID>.json)." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let timeline_arg =
    let doc = "Also print a compact text timeline to stderr." in
    Arg.(value & flag & info [ "timeline" ] ~doc)
  in
  let capacity_arg =
    let doc = "Trace ring capacity in events (oldest events drop beyond it)." in
    Arg.(value & opt int 262_144 & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let run repo_root id out timeline capacity =
    setup_tcb repo_root;
    let module Trace = Cio_telemetry.Trace in
    Trace.enable ~capacity;
    if not (Cio_experiments.Experiments.run_one Fmt.stdout id) then begin
      Fmt.epr "unknown experiment id: %s@." id;
      1
    end
    else begin
      Trace.disable ();
      let file = match out with Some f -> f | None -> Printf.sprintf "trace-%s.json" id in
      let buf = Buffer.create 65536 in
      Trace.to_chrome_json buf;
      let oc = open_out file in
      Buffer.output_buffer oc buf;
      close_out oc;
      if timeline then Fmt.epr "%a@." Trace.pp_timeline ();
      Fmt.pr "trace: %d events (%d dropped by ring wrap), digest %016x -> %s@."
        (Trace.recorded ()) (Trace.dropped ()) (Trace.digest ()) file;
      0
    end
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run one experiment with tracing enabled and export a Chrome trace")
    Term.(const run $ repo_root_arg $ id_arg $ out_arg $ timeline_arg $ capacity_arg)

(* Composed-fault overload campaign: the same hostile-host plan run with
   the overload plane off, then on — printed for humans and optionally
   written as a cio-campaign-v1 JSON artifact for CI. *)
let campaign_cmd =
  let seed_arg =
    Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Plan seed (deterministic).")
  in
  let json_arg =
    let doc = "Write the off/on reports as a cio-campaign-v1 JSON file." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run seed json =
    let open Cio_fault in
    let module Host_model = Cio_cionet.Host_model in
    (* Buffer-pool checking on: a double recycle anywhere in the run
       fails it. The report is the same either way. *)
    Cio_mem.Bufpool.set_checking true;
    (* A host-health plan: a stall and a one-directional ring freeze,
       the two faults the breaker + retry budget are about. *)
    let plan =
      {
        Plan.seed;
        injections =
          [
            { Plan.at_step = 2_000; kind = Plan.Host (Host_model.Stall 600) };
            { Plan.at_step = 9_000; kind = Plan.Host (Host_model.Ring_freeze 600) };
          ];
      }
    in
    let config =
      { Campaign.default_config with Campaign.watchdog_budget = 120; max_steps = 150_000 }
    in
    let off = Campaign.run ~config plan in
    (* Trip the breaker after two consecutive watchdog failures so the
       open -> half-open -> closed walk is visible in the report. *)
    let plane_cfg =
      { Cio_overload.Plane.default_config with Cio_overload.Plane.breaker_threshold = 2 }
    in
    let on = Campaign.run ~config:{ config with Campaign.overload = Some plane_cfg } plan in
    Fmt.pr "overload campaign, plane OFF:@.%a@." Campaign.pp off;
    Fmt.pr "overload campaign, plane ON:@.%a@." Campaign.pp on;
    (match json with
    | Some file ->
        let module Json = Cio_util.Json_lite in
        let report =
          Json.Obj
            [
              ("schema", Json.Str "cio-campaign-v1");
              ("seed", Json.Num (Int64.to_float seed));
              ("off", Campaign.to_json off);
              ("on", Campaign.to_json on);
            ]
        in
        let oc = open_out file in
        output_string oc (Json.to_string report ^ "\n");
        close_out oc;
        Fmt.pr "report: %s@." file
    | None -> ());
    if off.Campaign.survived && on.Campaign.survived then 0 else 1
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run the composed-fault overload campaign (plane off, then on)")
    Term.(const run $ seed_arg $ json_arg)

let main =
  let doc = "confidential I/O simulator: reproduction of 'Towards (Really) Safe and Fast Confidential I/O' (HotOS '23)" in
  Cmd.group (Cmd.info "cio-sim" ~version:"1.0.0" ~doc)
    [ list_cmd; run_cmd; all_cmd; trace_cmd; campaign_cmd ]

let () = exit (Cmd.eval' main)

(* Command-line driver: reproduce the paper's figures and theorem tables,
   solve instances, and compare policies on the built-in scenarios.

     rightsizer list                     # every reproducible artifact
     rightsizer run fig1 thm8 ...        # regenerate selected artifacts
     rightsizer run --all                # everything (EXPERIMENTS.md source)
     rightsizer solve --scenario cpu-gpu # offline optimum on a scenario
     rightsizer online --scenario cpu-gpu --eps 0.5
     rightsizer compare --scenario three-tier
*)

open Cmdliner

(* Shared -v/--verbose flag: enables debug logging from the library's
   sources ("rightsizing.*"). *)
let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_term =
  let arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.") in
  Term.(const setup_logs $ arg)

(* Shared observability flags.  Setup runs before the command body;
   export happens at process exit so one mechanism serves every
   subcommand (the solvers and steppers are instrumented with Obs spans
   and counters unconditionally). *)
let setup_obs trace metrics manifest summary =
  if trace <> None || metrics <> None || manifest <> None || summary then begin
    let started_us = Core.Obs.Span.now_us () in
    let contents =
      match trace with
      | Some _ ->
          let sink, contents = Core.Obs.Sink.memory () in
          Core.Obs.Sink.install sink;
          Some contents
      | None -> None
    in
    at_exit (fun () ->
        Core.Obs.Sink.uninstall ();
        let wall_s = (Core.Obs.Span.now_us () -. started_us) /. 1e6 in
        let label = String.concat " " (Array.to_list Sys.argv) in
        let m = Core.Obs.Run_manifest.capture ~label ~wall_s in
        (match (trace, contents) with
        | Some path, Some contents ->
            Core.Obs.Trace_export.write_chrome_json
              ~other:(Core.Obs.Run_manifest.to_fields m) ~path (contents ())
        | _ -> ());
        (match metrics with
        | Some path -> Core.Obs.Metrics_export.write ~path (Core.Obs.Counter.snapshot ())
        | None -> ());
        (match manifest with
        | Some path -> Core.Obs.Run_manifest.write_json ~path m
        | None -> ());
        if summary then begin
          print_newline ();
          print_string (Core.Obs.Run_manifest.render m)
        end)
  end

let obs_term =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Record solver spans and write them to FILE as Chrome trace-event JSON \
                (load in chrome://tracing or https://ui.perfetto.dev).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write the final work-counter snapshot (DP cells, dispatch calls, \
                power-ups, ...) to FILE as plain text.")
  in
  let manifest_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:"Write the run manifest (command, scenario, algorithm, wall time, \
                counters) to FILE as JSON — a reproducible record of the run.")
  in
  let summary_arg =
    Arg.(
      value & flag
      & info [ "obs-summary" ]
          ~doc:"Print the run manifest (wall time and non-zero work counters) on exit.")
  in
  Term.(const setup_obs $ trace_arg $ metrics_arg $ manifest_arg $ summary_arg)

let scenarios = Core.Scenarios.named

let scenario_conv =
  let parse s =
    match List.assoc_opt s scenarios with
    | Some f -> Ok (s, f)
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown scenario %s (try: %s)" s
                (String.concat ", " (List.map fst scenarios))))
  in
  let print ppf (name, _) = Format.pp_print_string ppf name in
  Arg.conv (parse, print)

let scenario_arg =
  Arg.(
    value
    & opt scenario_conv (List.nth scenarios 0)
    & info [ "s"; "scenario" ] ~docv:"NAME" ~doc:"Built-in scenario to operate on.")

let file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "f"; "file" ]
        ~docv:"FILE"
        ~doc:"Load the instance from an s-expression file instead of a scenario               (see lib/model/spec.mli for the format).")

let workload_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "w"; "workload" ] ~docv:"CSV"
        ~doc:"Replace the instance's loads with a workload CSV (columns slot,load; \
              see Sim.Trace).  Loads must fit the fleet's capacity.")

(* Resolve --file (takes precedence) or --scenario into an instance, then
   optionally swap in a CSV workload. *)
let resolve_instance ?workload (name, mk) horizon file =
  let base =
    match file with
    | Some path -> (
        match Core.Spec.load_file path with
        | Ok inst -> Ok (path, inst)
        | Error m -> Error (Printf.sprintf "cannot load %s: %s" path m))
    | None -> Ok (name, mk horizon)
  in
  let result =
    match (base, workload) with
    | (Error _ as e), _ -> e
    | Ok _, None -> base
    | Ok (label, inst), Some path -> (
        match Core.Trace.load_workload ~path with
        | exception Invalid_argument m -> Error (Printf.sprintf "bad workload %s: %s" path m)
        | load ->
            let swapped = Core.Instance.with_loads inst load in
            if Core.Instance.feasible_load swapped then
              Ok (Printf.sprintf "%s + %s" label (Filename.basename path), swapped)
            else Error "workload exceeds the fleet's capacity")
  in
  (match result with
  | Ok (label, inst) ->
      Core.Obs.Run_manifest.note "scenario" label;
      Core.Obs.Run_manifest.note "horizon" (string_of_int (Core.Instance.horizon inst));
      Core.Obs.Run_manifest.note "types" (string_of_int (Core.Instance.num_types inst))
  | Error _ -> ());
  result

let horizon_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "T"; "horizon" ] ~docv:"SLOTS" ~doc:"Override the scenario's horizon.")

(* --- checkpoint/resume flags (solve and online; docs/robustness.md) --- *)

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:"Periodically write a crash-safe checkpoint (versioned, checksummed) \
              to FILE; resume an interrupted run with $(b,--resume).")

let checkpoint_every_arg =
  Arg.(
    value & opt int 8
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Checkpoint every N slots/layers (default 8; with --checkpoint).")

let resume_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:"Resume from a checkpoint written by $(b,--checkpoint) for the same \
              instance and settings.  The resumed run is bit-identical to an \
              uninterrupted one; a torn or corrupted checkpoint is rejected.")

let crash_after_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "crash-after" ] ~docv:"N"
        ~doc:"Testing hook: simulate a crash (exit 3) after N slots/layers, \
              leaving behind only the state already made durable (the checkpoint \
              file for solve and online, the log for serve).")

(* Load and decode a checkpoint, or explain why not. *)
let load_checkpoint ~kind ~decode path =
  match Core.Snapshot.load ~kind ~path () with
  | Error e ->
      Error (Printf.sprintf "cannot resume from %s: %s" path
               (Core.Snapshot.error_to_string e))
  | Ok payload -> (
      match decode payload with
      | Error m -> Error (Printf.sprintf "cannot resume from %s: %s" path m)
      | Ok v -> Ok v)

let write_checkpoint ~kind ~path payload =
  match Core.Snapshot.save ~path ~kind payload with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "warning: checkpoint %s failed: %s\n%!" path
        (Core.Snapshot.error_to_string e)

let simulated_crash ~done_ = function
  | Some n when done_ >= n ->
      Printf.eprintf "simulated crash after %d steps (exit 3)\n%!" done_;
      exit 3
  | Some _ | None -> ()

(* The checkpointable online runner: a Streaming session (algorithm A
   for time-independent instances, algorithm B otherwise) fed the
   instance's loads slot by slot.  A checkpoint is the session's own
   save; the schedule, resumed prefix included, is rebuilt from the
   session's power events at the end. *)
let run_online_checkpointed ~checkpoint ~every ~resume ~crash_after inst =
  let horizon = Core.Instance.horizon inst in
  let types = inst.Core.Instance.types in
  let session =
    if inst.Core.Instance.time_independent then
      let fns = Array.mapi (fun typ _ -> inst.Core.Instance.cost ~time:0 ~typ) types in
      Core.Streaming.alg_a ~max_horizon:horizon ~types ~fns ()
    else Core.Streaming.alg_b ~max_horizon:horizon ~types ~cost:inst.Core.Instance.cost ()
  in
  (* A checkpoint resumes only a run over the loads it was fed, bit for bit. *)
  let own_prefix loads =
    let bits = Array.map Int64.bits_of_float in
    bits loads = bits (Array.sub inst.Core.Instance.load 0 (Array.length loads))
  in
  let restored =
    match resume with
    | None -> Ok ()
    | Some path ->
        load_checkpoint ~kind:"online-run" path ~decode:(fun payload ->
            Result.bind (Core.Streaming.restore session payload) (fun () ->
                if own_prefix (Core.Streaming.loads session) then Ok ()
                else
                  Error
                    "online-run: the checkpoint's loads are not a prefix of this \
                     instance's loads"))
  in
  let rec feed time =
    if time = horizon then Ok ()
    else
      match Core.Streaming.feed_result session inst.Core.Instance.load.(time) with
      | Error e ->
          Error
            (Printf.sprintf "slot %d: %s" time (Core.Streaming.feed_error_to_string e))
      | Ok _ ->
          (match checkpoint with
          | Some path when (time + 1) mod every = 0 || time = horizon - 1 ->
              write_checkpoint ~kind:"online-run" ~path (Core.Streaming.save session)
          | Some _ | None -> ());
          simulated_crash ~done_:(time + 1) crash_after;
          feed (time + 1)
  in
  Result.map
    (fun () ->
      let schedule = Core.Streaming.decisions session ~from_:0 in
      (schedule, Core.Cost.schedule inst schedule))
    (Result.bind restored (fun () -> feed (Core.Streaming.fed session)))

let print_schedule inst schedule =
  let d = Core.Instance.num_types inst in
  let tbl =
    Core.Table.create
      ~header:
        ("t" :: "load"
        :: List.init d (fun j -> inst.Core.Instance.types.(j).Core.Server_type.name))
  in
  Array.iteri
    (fun t x ->
      Core.Table.add_row tbl
        (string_of_int t
        :: Printf.sprintf "%.2f" inst.Core.Instance.load.(t)
        :: List.init d (fun j -> string_of_int x.(j))))
    schedule;
  Core.Table.print tbl

(* --- list --- *)

let list_cmd =
  let run () =
    let tbl = Core.Table.create ~header:[ "id"; "kind"; "description" ] in
    List.iter
      (fun e ->
        let kind =
          match e.Core.Experiment_registry.kind with
          | `Figure -> "figure"
          | `Table -> "table"
          | `Extension -> "extension"
        in
        Core.Table.add_row tbl [ e.Core.Experiment_registry.id; kind; e.description ])
      Core.Experiment_registry.all;
    Core.Table.print ~align:Core.Table.Left tbl
  in
  Cmd.v (Cmd.info "list" ~doc:"List every reproducible figure/table.")
    Term.(const run $ const ())

(* --- run --- *)

let run_cmd =
  let ids_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (see list).")
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Run every experiment in paper order.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:"Also write each report to DIR/<id>.txt (DIR is created).")
  in
  let run () all out ids =
    let targets =
      if all then List.map (fun e -> e.Core.Experiment_registry.id) Core.Experiment_registry.all
      else ids
    in
    if targets = [] then `Error (false, "no experiment ids given (or use --all)")
    else begin
      let missing =
        List.filter (fun id -> Core.Experiment_registry.find id = None) targets
      in
      match missing with
      | _ :: _ -> `Error (false, "unknown ids: " ^ String.concat ", " missing)
      | [] ->
          (match out with
          | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
          | Some _ | None -> ());
          List.iter
            (fun id ->
              match Core.Experiment_registry.find id with
              | Some e ->
                  let report = e.Core.Experiment_registry.run () in
                  Core.Report.print report;
                  print_newline ();
                  (match out with
                  | Some dir ->
                      Out_channel.with_open_text
                        (Filename.concat dir (id ^ ".txt"))
                        (fun oc -> Out_channel.output_string oc (Core.Report.to_string report));
                      List.iter
                        (fun (name, content) ->
                          Out_channel.with_open_text (Filename.concat dir name)
                            (fun oc -> Out_channel.output_string oc content))
                        report.Core.Report.artifacts
                  | None -> ())
              | None -> ())
            targets;
          `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Regenerate figures/tables from the paper.")
    Term.(ret (const run $ obs_term $ all_arg $ out_arg $ ids_arg))

(* --- solve --- *)

let solve_cmd =
  let eps_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "eps" ] ~docv:"EPS"
          ~doc:"Use the (1+eps)-approximation instead of the exact optimum.")
  in
  let run () () scenario horizon file workload eps checkpoint every resume crash_after =
    match resolve_instance ?workload scenario horizon file with
    | Error m -> `Error (false, m)
    | Ok (name, inst) -> (
        Core.Obs.Run_manifest.note "algorithm"
          (match eps with
          | None -> "dp-optimal"
          | Some e -> Printf.sprintf "dp-approx(eps=%g)" e);
        if every < 1 then `Error (false, "--checkpoint-every must be >= 1")
        else if crash_after <> None && checkpoint = None then
          `Error (false, "--crash-after requires --checkpoint")
        else begin
          let grids =
            match eps with
            | None -> None
            | Some eps when eps > 0. ->
                Some (Core.Offline_dp.approx_grids ~gamma:(1. +. (eps /. 2.)) inst)
            | Some _ -> None
          in
          let frontier =
            match resume with
            | None -> Ok None
            | Some path ->
                Result.map Option.some
                  (load_checkpoint ~kind:"dp-frontier" path
                     ~decode:Core.Offline_dp.frontier_of_sexp)
          in
          match (frontier, eps) with
          | Error m, _ -> `Error (false, m)
          | _, Some e when e <= 0. -> `Error (false, "--eps must be positive")
          | Ok frontier, _ ->
              let on_layer =
                match checkpoint with
                | None -> None
                | Some path ->
                    Some
                      (fun ~time materialize ->
                        let filled = time + 1 in
                        if filled mod every = 0 then
                          write_checkpoint ~kind:"dp-frontier" ~path
                            (Core.Offline_dp.frontier_to_sexp (materialize ()));
                        simulated_crash ~done_:filled crash_after)
              in
              let { Core.Offline_dp.schedule; cost } =
                Core.Offline_dp.solve ?grids ?resume:frontier ?on_layer inst
              in
              Printf.printf "instance %s: %s cost %.4f\n" name
                (match eps with
                | None -> "optimal"
                | Some e -> Printf.sprintf "(1+%g)-approximate" e)
                cost;
              print_schedule inst schedule;
              `Ok ()
        end)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve a scenario or instance file offline (Section 4).")
    Term.(
      ret
        (const run $ verbose_term $ obs_term $ scenario_arg $ horizon_arg $ file_arg
        $ workload_arg $ eps_arg $ checkpoint_arg $ checkpoint_every_arg $ resume_arg
        $ crash_after_arg))

(* --- online --- *)

(* Run a solver chosen by name; Error when the instance does not meet
   the solver's preconditions.  The names are the same the serving
   daemon accepts in create-session (docs/solvers.md). *)
let run_named_alg ~eps inst alg =
  match alg with
  | "a" ->
      if inst.Core.Instance.time_independent then
        Ok ("A", (Core.Alg_a.run inst).Core.Alg_a.schedule)
      else Error "--alg a requires time-independent costs"
  | "b" -> Ok ("B", (Core.Alg_b.run inst).Core.Alg_b.schedule)
  | "c" -> Ok ("C", (Core.Alg_c.run ~eps inst).Core.Alg_c.schedule)
  | "rand" ->
      Ok
        ( "rand",
          (Core.Alg_rand.run ~rng:(Core.Prng.create 42) inst).Core.Alg_rand.schedule )
  | "det2d" ->
      if Core.Alg_det2d.applicable inst then
        Ok ("det2d", (Core.Alg_det2d.run inst).Core.Alg_det2d.schedule)
      else Error "--alg det2d requires load-independent costs and positive switching costs"
  | "homog" ->
      if Core.Alg_homog.applicable inst then
        Ok ("homog", (Core.Alg_homog.run inst).Core.Alg_homog.schedule)
      else
        Error
          "--alg homog requires coinciding server types (equal beta, cap, costs) and a \
           fixed fleet size"
  | other -> Error (Printf.sprintf "unknown --alg %s (a|b|c|rand|det2d|homog)" other)

let online_cmd =
  let eps_arg =
    Arg.(
      value & opt float 0.5
      & info [ "eps" ] ~docv:"EPS" ~doc:"Algorithm C's eps (time-dependent costs only).")
  in
  let alg_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "alg" ] ~docv:"ALG"
          ~doc:
            "Solver to run: a, b, c, rand, det2d or homog (default: auto-pick A or B/C \
             from the instance).  See docs/solvers.md.")
  in
  let run () scenario horizon file eps alg checkpoint every resume crash_after =
    match resolve_instance scenario horizon file with
    | Error m -> `Error (false, m)
    | Ok (name, inst) when inst.Core.Instance.size_varying ->
        `Error
          ( false,
            Printf.sprintf
              "instance %s has time-varying fleet sizes, which only the offline \
               solver honours (Section 4.3); use `rightsizer solve'"
              name )
    | Ok (name, inst) -> (
        let checkpointing = checkpoint <> None || resume <> None in
        let algorithm =
          match alg with
          | Some a -> String.uppercase_ascii a
          | None ->
              if inst.Core.Instance.time_independent then "A"
              else if checkpointing then "B"
              else "C"
        in
        Core.Obs.Run_manifest.note "algorithm" ("alg-" ^ algorithm);
        if algorithm = "C" then
          Core.Obs.Run_manifest.note "eps" (Printf.sprintf "%g" eps);
        if every < 1 then `Error (false, "--checkpoint-every must be >= 1")
        else if crash_after <> None && checkpoint = None then
          `Error (false, "--crash-after requires --checkpoint")
        else if alg <> None && checkpointing then
          `Error (false, "--alg cannot be combined with --checkpoint/--resume")
        else begin
          let result =
            match alg with
            | Some a ->
                Result.map
                  (fun (_, schedule) -> (schedule, Core.Cost.schedule inst schedule))
                  (run_named_alg ~eps inst a)
            | None ->
                if checkpointing then
                  run_online_checkpointed ~checkpoint ~every ~resume ~crash_after inst
                else Ok (Core.run_online ~eps inst)
          in
          match result with
          | Error m -> `Error (false, m)
          | Ok (schedule, cost) ->
              let opt = Core.Harness.opt_cost inst in
              Printf.printf "instance %s: algorithm %s cost %.4f, OPT %.4f, ratio %.4f\n"
                name algorithm cost opt
                (Core.Harness.ratio ~cost ~opt);
              print_schedule inst schedule;
              `Ok ()
        end)
  in
  Cmd.v
    (Cmd.info "online"
       ~doc:"Run one of the online algorithms on a scenario or instance file \
             (--alg a|b|c|rand|det2d|homog, default auto).  With \
             --checkpoint/--resume the run is a checkpointable slot loop (algorithm A \
             for time-independent instances, algorithm B otherwise) that survives \
             crashes bit-identically.  Instances with time-varying fleet sizes are \
             refused: only $(b,solve) honours them.")
    Term.(
      ret
        (const run $ obs_term $ scenario_arg $ horizon_arg $ file_arg $ eps_arg
        $ alg_arg $ checkpoint_arg $ checkpoint_every_arg $ resume_arg $ crash_after_arg))

(* --- arena --- *)

let arena_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Also write the arena artifacts (arena.json, arena.csv) into $(docv).")
  in
  let run () () out =
    let report = Core.Arena.run () in
    print_string (Core.Report.to_string report);
    (match out with
    | None -> ()
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun (file, content) ->
            let path = Filename.concat dir file in
            let oc = open_out path in
            output_string oc content;
            close_out oc;
            Printf.printf "wrote %s\n" path)
          report.Core.Report.artifacts);
    if report.Core.Report.pass then `Ok ()
    else `Error (false, "arena: a solver broke its bound (see the race table)")
  in
  Cmd.v
    (Cmd.info "arena"
       ~doc:"Race every online solver (A, B, C, rand, det2d, homog and the baselines) \
             across the scenario library and an adversarial trace; measure competitive \
             ratios against the exact optimum and assert every theoretical bound.")
    Term.(ret (const run $ verbose_term $ obs_term $ out_arg))

(* --- compare --- *)

let compare_cmd =
  let window_arg =
    Arg.(value & opt int 3 & info [ "window" ] ~docv:"W" ~doc:"Receding-horizon lookahead.")
  in
  let run () scenario horizon file window =
    match resolve_instance scenario horizon file with
    | Error m -> `Error (false, m)
    | Ok (name, inst) ->
    Core.Obs.Run_manifest.note "algorithm" "suite";
    let opt = Core.Harness.opt_cost inst in
    let named = Core.Harness.run_suite ~window inst in
    let tbl = Core.Table.create ~header:[ "policy"; "cost"; "ratio"; "feasible" ] in
    List.iter
      (fun e ->
        Core.Table.add_row tbl
          [ e.Core.Harness.name;
            Printf.sprintf "%.3f" e.Core.Harness.cost;
            Printf.sprintf "%.3f" e.Core.Harness.ratio;
            string_of_bool e.Core.Harness.feasible ])
      (Core.Harness.evaluate inst ~opt named);
    Printf.printf "instance %s (T = %d, d = %d)\n" name (Core.Instance.horizon inst)
      (Core.Instance.num_types inst);
    Core.Table.print tbl;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare all policies on a scenario or instance file.")
    Term.(
      ret
        (const run $ obs_term $ scenario_arg $ horizon_arg $ file_arg $ window_arg))

(* --- plan --- *)

let plan_cmd =
  let file_pos =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Instance file; each type's count is its maximum and an optional \
                (capex c) field prices each unit.")
  in
  let budget_arg =
    Arg.(value & opt int 20_000 & info [ "budget" ] ~docv:"N" ~doc:"Max DP evaluations.")
  in
  let run () path budget =
    Core.Obs.Run_manifest.note "algorithm" "fleet-planner";
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error m -> `Error (false, m)
    | text -> (
        match Core.Spec.parse_planning text with
        | Error m -> `Error (false, Printf.sprintf "cannot parse %s: %s" path m)
        | Ok (triples, load) ->
            let candidates =
              Array.map
                (fun (server, fn, capex) -> { Core.Fleet_planner.server; fn; capex })
                triples
            in
            let plan = Core.Fleet_planner.optimize ~budget ~candidates ~load () in
            Printf.printf "fleet plan for %s (%d fleets priced%s):\n" path
              plan.Core.Fleet_planner.evaluated
              (if plan.Core.Fleet_planner.exhaustive then ", exhaustive"
               else "; budget hit, possibly suboptimal");
            let tbl = Core.Table.create ~header:[ "type"; "buy"; "of max"; "capex/unit" ] in
            Array.iteri
              (fun j n ->
                let server, _, capex = triples.(j) in
                Core.Table.add_row tbl
                  [ server.Core.Server_type.name;
                    string_of_int n;
                    string_of_int server.Core.Server_type.count;
                    Printf.sprintf "%.2f" capex ])
              plan.Core.Fleet_planner.counts;
            Core.Table.print tbl;
            Printf.printf "capex %.2f + operating %.2f = total %.2f\n"
              plan.Core.Fleet_planner.capex plan.Core.Fleet_planner.operating
              plan.Core.Fleet_planner.total;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Choose fleet sizes (capex + optimal operating cost) from an instance file.")
    Term.(ret (const run $ obs_term $ file_pos $ budget_arg))

(* --- analyze --- *)

let analyze_cmd =
  let algo_arg =
    Arg.(
      value
      & opt (enum [ ("opt", `Opt); ("alg-a", `A); ("alg-b", `B) ]) `Opt
      & info [ "a"; "algorithm" ] ~docv:"NAME"
          ~doc:"Whose schedule to analyse: $(b,opt), $(b,alg-a) or $(b,alg-b).")
  in
  let run () scenario horizon file algo =
    match resolve_instance scenario horizon file with
    | Error m -> `Error (false, m)
    | Ok (name, inst) ->
        let algo_name, schedule =
          match algo with
          | `Opt ->
              ( "offline optimum",
                (Core.Offline_dp.solve_optimal inst).Core.Offline_dp.schedule )
          | `A -> ("algorithm A", (Core.Alg_a.run inst).Core.Alg_a.schedule)
          | `B -> ("algorithm B", (Core.Alg_b.run inst).Core.Alg_b.schedule)
        in
        Core.Obs.Run_manifest.note "algorithm" algo_name;
        let d = Core.Instance.num_types inst in
        let horizon_n = Core.Instance.horizon inst in
        Printf.printf "instance %s, %s (T = %d, d = %d)\n" name algo_name horizon_n d;
        Printf.printf "operating %.3f + switching %.3f = %.3f\n"
          (Core.Cost.schedule_operating inst schedule)
          (Core.Cost.schedule_switching inst schedule)
          (Core.Cost.schedule inst schedule);
        let tbl =
          Core.Table.create
            ~header:[ "type"; "m"; "peak"; "mean"; "ups"; "downs"; "busy slots" ]
        in
        for typ = 0 to d - 1 do
          let st = Core.Schedule.stats schedule ~typ in
          Core.Table.add_row tbl
            [ inst.Core.Instance.types.(typ).Core.Server_type.name;
              string_of_int (Core.Instance.max_count inst ~typ);
              string_of_int st.Core.Schedule.peak;
              Printf.sprintf "%.2f" st.Core.Schedule.mean_active;
              string_of_int st.Core.Schedule.power_ups;
              string_of_int st.Core.Schedule.power_downs;
              Printf.sprintf "%d/%d" st.Core.Schedule.busy_slots horizon_n ]
        done;
        Core.Table.print tbl;
        (* Trajectories. *)
        print_newline ();
        let glyphs = [| '#'; 'o'; '+'; 'x'; '*' |] in
        print_string
          (Core.Ascii_plot.step_series
             (List.init d (fun typ ->
                  { Core.Ascii_plot.label =
                      inst.Core.Instance.types.(typ).Core.Server_type.name;
                    glyph = glyphs.(typ mod Array.length glyphs);
                    values = Core.Schedule.column schedule ~typ })));
        `Ok ()
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Operational statistics of a schedule (power cycles, usage).")
    Term.(
      ret
        (const run $ obs_term $ scenario_arg $ horizon_arg $ file_arg $ algo_arg))

(* --- report --- *)

let report_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the markdown to FILE instead of stdout.")
  in
  let run () out =
    let buf = Buffer.create 8192 in
    Buffer.add_string buf
      "# Reproduction report\n\nGenerated by `rightsizer report` — every figure and \
       theorem of Albers & Quedenfeld (SPAA 2021), regenerated and machine-checked.\n\n";
    let all_pass = ref true in
    List.iter
      (fun e ->
        let report = e.Core.Experiment_registry.run () in
        if not report.Core.Report.pass then all_pass := false;
        Buffer.add_string buf (Core.Report.to_markdown report))
      Core.Experiment_registry.all;
    Buffer.add_string buf
      (Printf.sprintf "---\n\n**Overall: %s.**\n"
         (if !all_pass then "every machine-checked claim holds" else "CHECKS FAILED"));
    (match out with
    | None -> print_string (Buffer.contents buf)
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Buffer.contents buf));
        Printf.printf "wrote %s\n" path)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Regenerate the full markdown reproduction report.")
    Term.(const run $ obs_term $ out_arg)

(* --- verify --- *)

let verify_cmd =
  let run () () =
    let tbl = Core.Table.create ~header:[ "id"; "check"; "measured" ] in
    let all_pass = ref true in
    List.iter
      (fun e ->
        let report = e.Core.Experiment_registry.run () in
        if not report.Core.Report.pass then all_pass := false;
        Core.Table.add_row tbl
          [ e.Core.Experiment_registry.id;
            (if report.Core.Report.pass then "PASS" else "FAIL");
            report.Core.Report.verdict ])
      Core.Experiment_registry.all;
    Core.Table.print ~align:Core.Table.Left tbl;
    if !all_pass then begin
      print_endline "\nall machine-checked claims hold";
      `Ok ()
    end
    else `Error (false, "one or more reproduction checks FAILED")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Run every experiment and assert its machine-checked claim (CI entry point).")
    Term.(ret (const run $ obs_term $ const ()))

(* --- simulate --- *)

let simulate_cmd =
  let boot_arg =
    Arg.(
      value & opt int 0
      & info [ "boot-delay" ] ~docv:"SLOTS"
          ~doc:"Boot delay applied to every type (paper model: 0).")
  in
  let carry_arg =
    Arg.(
      value & flag
      & info [ "carry-backlog" ] ~doc:"Queue overflow volume instead of dropping it.")
  in
  let failure_arg =
    Arg.(
      value & opt float 0.
      & info [ "failure-rate" ] ~docv:"P"
          ~doc:"Per-server, per-slot crash probability (0 disables failures).")
  in
  let repair_arg =
    Arg.(
      value & opt int 3
      & info [ "repair-slots" ] ~docv:"SLOTS" ~doc:"Repair time for crashed servers.")
  in
  let controller_arg =
    Arg.(
      value
      & opt (enum [ ("opt", `Opt); ("alg-a", `A); ("alg-b", `B);
                    ("hysteresis", `Hysteresis); ("static-peak", `Peak) ])
          `A
      & info [ "c"; "controller" ] ~docv:"NAME"
          ~doc:"Decision policy: $(b,opt) (offline optimum), $(b,alg-a), $(b,alg-b),                 $(b,hysteresis), or $(b,static-peak).")
  in
  let run () scenario horizon file boot carry failure_rate repair controller =
    match resolve_instance scenario horizon file with
    | Error m -> `Error (false, m)
    | Ok (name, inst) ->
        let d = Core.Instance.num_types inst in
        if boot < 0 then `Error (false, "boot delay must be non-negative")
        else begin
          let failures =
            if failure_rate <= 0. then None
            else Some { Core.Sim_dc.rate = failure_rate; repair_slots = repair; seed = 11 }
          in
          let config =
            { Core.Sim_dc.boot_delay = Array.make d boot; carry_backlog = carry; failures }
          in
          let ctrl_name, controller =
            match controller with
            | `Opt ->
                let { Core.Offline_dp.schedule; _ } =
                  Core.Offline_dp.solve_optimal inst
                in
                ("offline optimum", Core.Controllers.of_schedule schedule)
            | `A -> ("algorithm A", Core.Controllers.alg_a inst)
            | `B -> ("algorithm B", Core.Controllers.alg_b inst)
            | `Hysteresis ->
                ("hysteresis 80/30", Core.Controllers.hysteresis ~up:0.8 ~down:0.3 inst)
            | `Peak -> ("static peak", Core.Controllers.static_peak inst)
          in
          Core.Obs.Run_manifest.note "controller" ctrl_name;
          let m, commanded = Core.Sim_dc.run_controller ~config inst controller in
          Printf.printf
            "instance %s, controller %s, boot delay %d, %s overflow\n" name ctrl_name boot
            (if carry then "queued" else "dropped");
          Printf.printf "  energy    %10.3f\n" m.Core.Sim_dc.energy;
          Printf.printf "  switching %10.3f  (%d power-ups)\n" m.Core.Sim_dc.switching
            m.Core.Sim_dc.power_up_events;
          Printf.printf "  total     %10.3f\n" (m.Core.Sim_dc.energy +. m.Core.Sim_dc.switching);
          Printf.printf "  served    %10.3f\n" m.Core.Sim_dc.served;
          if failure_rate > 0. then
            Printf.printf "  crashes   %10d\n" m.Core.Sim_dc.failures;
          Printf.printf "  unserved  %10.3f\n" m.Core.Sim_dc.unserved;
          Printf.printf "  backlog^  %10.3f\n" m.Core.Sim_dc.backlog_peak;
          Printf.printf "  util      %10.3f\n" m.Core.Sim_dc.mean_utilisation;
          print_schedule inst commanded;
          `Ok ()
        end
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Execute a controller in the discrete-event simulator (boot delays, backlogs).")
    Term.(
      ret
        (const run $ obs_term $ scenario_arg $ horizon_arg $ file_arg $ boot_arg $ carry_arg
        $ failure_arg $ repair_arg $ controller_arg))

(* --- serve --- *)

let faultinj_plan = function
  | Core.Scenario_def.Nth n -> Core.Faultinj.Nth n
  | Core.Scenario_def.Every n -> Core.Faultinj.Every n
  | Core.Scenario_def.Prob p -> Core.Faultinj.Prob p

let unix_sock_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "unix" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket at PATH.")

let tcp_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Listen on TCP 127.0.0.1:PORT.")

let serve_cmd =
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "domains" ] ~docv:"N"
          ~doc:(Printf.sprintf
                  "Fan each round's session steps out across a persistent pool of N \
                   domains, 1 to %d (default 1 = sequential).  Decisions are \
                   bit-identical to the sequential run; only the wall time changes."
                  Core.Pool.max_domains))
  in
  let max_sessions_arg =
    Arg.(
      value & opt int 1024
      & info [ "max-sessions" ] ~docv:"N" ~doc:"Refuse new sessions beyond N (default 1024).")
  in
  let metrics_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:"Serve the Prometheus-format telemetry scrape on 127.0.0.1:PORT.")
  in
  let audit_every_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "audit-every" ] ~docv:"SLOTS"
          ~doc:"Enable the shadow oracle: every SLOTS freshly stepped slots, replay \
                sampled sessions through the offline optimum and publish \
                audit_regret_ratio (docs/observability.md).")
  in
  let audit_sample_arg =
    Arg.(
      value & opt int 4
      & info [ "audit-sample" ] ~docv:"N"
          ~doc:"Sessions sampled per audit batch (default 4).")
  in
  let fault_arg =
    Arg.(
      value & opt_all string []
      & info [ "fault" ] ~docv:"SITE=PLAN"
          ~doc:"Arm a fault-injection site (repeatable), e.g. \
                $(b,server.step=every:40) or $(b,server.read=nth:2); plans are \
                $(b,nth:N), $(b,every:N) or $(b,prob:P) (docs/robustness.md).")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 0
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:"Seed for probabilistic fault plans (default 0).")
  in
  let serve_resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Recover the session table from the $(b,--log-dir) store (base + \
                tail) instead of starting a new epoch.  The resumed daemon is \
                bit-identical to an uninterrupted one; a store that cannot be \
                recovered fails the start.  Requires $(b,--log-dir).")
  in
  let log_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-dir" ] ~docv:"DIR"
          ~doc:"Keep the session table durable in the incremental store: an \
                append-only decision log + cemented chunks in DIR, fsynced once \
                per round (docs/durability.md).  A store write failure stops the \
                daemon with exit status 4; restart it with $(b,--resume).  \
                Without DIR the daemon keeps no durable state.")
  in
  let cement_every_arg =
    Arg.(
      value & opt int 4096
      & info [ "cement-every" ] ~docv:"RECORDS"
          ~doc:"With --log-dir: fold the live tail into an immutable cemented \
                chunk once it holds RECORDS fsynced records (default 4096).")
  in
  let parse_faults specs =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | spec :: rest -> (
          match String.index_opt spec '=' with
          | None -> Error (Printf.sprintf "serve: --fault %s: want SITE=PLAN" spec)
          | Some i -> (
              let site = String.sub spec 0 i in
              let plan = String.sub spec (i + 1) (String.length spec - i - 1) in
              if site = "" then Error ("serve: --fault " ^ spec ^ ": empty site")
              else
                match Core.Scenario_def.plan_of_string plan with
                | Error m -> Error ("serve: --fault " ^ spec ^ ": " ^ m)
                | Ok p -> go ((site, faultinj_plan p) :: acc) rest))
    in
    go [] specs
  in
  let run () unix_path tcp_port resume crash_after_slots max_sessions metrics_port
      audit_every audit_sample faults fault_seed log_dir cement_every domains =
    if unix_path = None && tcp_port = None then
      `Error (false, "serve: pass --unix PATH and/or --port PORT")
    else if resume && log_dir = None then
      `Error (false, "serve: --resume requires --log-dir")
    else if audit_sample < 1 then `Error (false, "serve: --audit-sample must be >= 1")
    else if audit_every <> None && Option.get audit_every < 1 then
      `Error (false, "serve: --audit-every must be >= 1")
    else if cement_every < 1 then `Error (false, "serve: --cement-every must be >= 1")
    else if domains < 1 || domains > Core.Pool.max_domains then
      `Error
        (false, Printf.sprintf "serve: --domains must be between 1 and %d" Core.Pool.max_domains)
    else begin
      match parse_faults faults with
      | Error m -> `Error (false, m)
      | Ok faults ->
      if faults <> [] then Core.Faultinj.arm ~seed:fault_seed faults;
      Core.Obs.Run_manifest.note "domains" (string_of_int domains);
      (* The pool is shut down (its domains joined) before serve returns. *)
      let with_pool f =
        if domains = 1 then f None
        else Core.Pool.with_pool ~name:"pool" ~domains (fun pool -> f (Some pool))
      in
      with_pool @@ fun pool ->
      let cfg =
        { Core.Daemon.default_config with
          unix_path; tcp_port; pool; max_sessions; crash_after_slots; metrics_port;
          audit_every; audit_sample; log_dir; cement_every }
      in
      match Core.Daemon.create ~resume cfg with
      | Error m -> `Error (false, m)
      | Ok d ->
          let stop _ = Core.Daemon.request_stop d in
          Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
          Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
          (match unix_path with
          | Some p -> Printf.printf "listening on %s\n%!" p
          | None -> ());
          (match tcp_port with
          | Some p -> Printf.printf "listening on 127.0.0.1:%d\n%!" p
          | None -> ());
          (match metrics_port with
          | Some p -> Printf.printf "metrics on 127.0.0.1:%d\n%!" p
          | None -> ());
          if resume then
            Printf.printf "resumed %d sessions\n%!" (Core.Daemon.session_count d);
          (try Core.Daemon.run d
           with Core.Daemon.Store_failed m ->
             Printf.eprintf "serve: store failure: %s; exiting (restart with --resume)\n%!" m;
             exit 4);
          Core.Obs.Run_manifest.note "sessions"
            (string_of_int (Core.Daemon.session_count d));
          Printf.printf "stopped after %d stepped slots (%d live sessions)\n%!"
            (Core.Daemon.stepped_slots d) (Core.Daemon.session_count d);
          `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the multi-session right-sizing daemon (protocol: docs/serving.md).  \
             SIGINT/SIGTERM stop it gracefully, cementing the $(b,--log-dir) store.  \
             Exit status 4: a store write failed.")
    Term.(
      ret
        (const run $ obs_term $ unix_sock_arg $ tcp_port_arg $ serve_resume_arg
        $ crash_after_arg $ max_sessions_arg $ metrics_port_arg $ audit_every_arg
        $ audit_sample_arg $ fault_arg $ fault_seed_arg $ log_dir_arg $ cement_every_arg
        $ domains_arg))

(* --- monitor --- *)

let monitor_cmd =
  let port_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"The daemon's --metrics-port on 127.0.0.1.")
  in
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period (default 2).")
  in
  let once_arg =
    Arg.(value & flag & info [ "once" ] ~doc:"Scrape once, print, exit.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print one JSON object per scrape instead of the table.")
  in
  let raw_arg =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:"Print the raw Prometheus scrape body verbatim (implies --once \
                unless --interval looping is explicitly wanted).")
  in
  let count_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "count" ] ~docv:"N" ~doc:"Stop after N scrapes.")
  in
  let run () port interval once json raw count =
    if interval <= 0. then `Error (false, "monitor: --interval must be > 0")
    else begin
      let limit = if once || raw then Some 1 else count in
      let clear = not (once || raw || json || count <> None) in
      let rec loop i prev =
        match (limit, i) with
        | Some n, i when i >= n -> `Ok ()
        | _ -> (
            match Core.Server_monitor.scrape ~port with
            | Error m -> `Error (false, m)
            | Ok body ->
                if raw then begin
                  print_string body;
                  if String.length body = 0 || body.[String.length body - 1] <> '\n'
                  then print_newline ();
                  next i prev
                end
                else (
                  match Core.Server_monitor.parse body with
                  | Error m -> `Error (false, m)
                  | Ok snap ->
                      let row = Core.Server_monitor.row_of snap in
                      if json then
                        print_endline (Core.Server_monitor.to_json ?prev row)
                      else begin
                        if clear then print_string "\027[H\027[2J";
                        print_string (Core.Server_monitor.render ?prev row)
                      end;
                      flush stdout;
                      next i (Some row)))
      and next i prev =
        match limit with
        | Some n when i + 1 >= n -> `Ok ()
        | _ ->
            Unix.sleepf interval;
            loop (i + 1) prev
      in
      loop 0 None
    end
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Poll a daemon's --metrics-port and render a refreshing status table \
             (decisions/s, latency quantiles, live sessions, shadow-oracle regret \
             ratio).  --once/--json/--raw for scripting.")
    Term.(
      ret
        (const run $ obs_term $ port_arg $ interval_arg $ once_arg $ json_arg
        $ raw_arg $ count_arg))

(* --- scenario --- *)

let scenario_files_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"FILE" ~doc:"Scenario file(s) (sexp; see docs/scenarios.md).")

let scenario_run_cmd =
  let out_arg =
    Arg.(
      value
      & opt string "scenario_artifacts"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for the per-scenario JSON artifacts (default \
                scenario_artifacts).")
  in
  let bin_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "bin" ] ~docv:"PATH"
          ~doc:"The rightsizer binary to spawn as the daemon (default: this one).")
  in
  let workdir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "workdir" ] ~docv:"DIR"
          ~doc:"Scratch directory for socket/log/checkpoint (default: a fresh \
                temp dir, removed when the scenario passes).")
  in
  let summarize (o : Core.Scenario_runner.outcome) artifact =
    let d = o.Core.Scenario_runner.def in
    Printf.printf "scenario  %s (base %s, alg %s)\n" d.Core.Scenario_def.name
      d.Core.Scenario_def.base o.Core.Scenario_runner.alg;
    Printf.printf "sessions  %d x %d slots in %.2f s\n" d.Core.Scenario_def.sessions
      d.Core.Scenario_def.slots o.Core.Scenario_runner.wall_s;
    Printf.printf "ratio     %.4f (bound %.2f, theory %.2f)\n"
      o.Core.Scenario_runner.ratio_max
      d.Core.Scenario_def.verify.Core.Scenario_def.ratio_bound
      o.Core.Scenario_runner.theory_bound;
    if o.Core.Scenario_runner.injected_retries > 0
       || o.Core.Scenario_runner.reconnects > 0 then
      Printf.printf "faults    %d injected retries, %d reconnects\n"
        o.Core.Scenario_runner.injected_retries o.Core.Scenario_runner.reconnects;
    (match o.Core.Scenario_runner.crash with
    | Some c ->
        Printf.printf "crash     exit %d, resumed and re-fed\n"
          c.Core.Scenario_runner.exit_code
    | None -> ());
    (match o.Core.Scenario_runner.metrics with
    | Some m ->
        Printf.printf "metrics   %.0f decisions, p99 request %s us\n"
          m.Core.Scenario_runner.decisions
          (match m.Core.Scenario_runner.p99_req_us with
          | Some v -> Printf.sprintf "%.0f" v
          | None -> "-")
    | None -> ());
    Printf.printf "artifact  %s\n" artifact;
    match o.Core.Scenario_runner.failures with
    | [] ->
        Printf.printf "PASS\n";
        true
    | fs ->
        List.iter (fun m -> Printf.printf "FAIL      %s\n" m) fs;
        Printf.printf "workdir kept at %s\n" o.Core.Scenario_runner.workdir;
        false
  in
  let run () files out bin workdir =
    let ok = ref true in
    List.iter
      (fun file ->
        if !ok then begin
          match Core.Scenario_def.load_file file with
          | Error m ->
              Printf.printf "%s: %s\n" file m;
              ok := false
          | Ok def -> (
              Core.Obs.Run_manifest.note "scenario" def.Core.Scenario_def.name;
              match Core.Scenario_runner.run ?bin ?workdir def with
              | Error m ->
                  Printf.printf "%s: %s\n" file m;
                  ok := false
              | Ok o -> (
                  match Core.Scenario_runner.write_artifact ~dir:out o with
                  | Error m ->
                      Printf.printf "%s: cannot write artifact: %s\n" file m;
                      ok := false
                  | Ok path -> if not (summarize o path) then ok := false))
        end)
      files;
    if !ok then `Ok () else `Error (false, "scenario: failures (see above)")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute scenario FILEs end-to-end against a freshly spawned daemon \
             process, verify decisions against the sequential oracle and the \
             offline optimum, and write one JSON artifact per scenario.")
    Term.(ret (const run $ obs_term $ scenario_files_arg $ out_arg $ bin_arg $ workdir_arg))

let scenario_check_cmd =
  let print_arg =
    Arg.(value & flag & info [ "print" ] ~doc:"Print the canonical form of each file.")
  in
  let run () files print =
    let ok = ref true in
    List.iter
      (fun file ->
        match Core.Scenario_def.load_file file with
        | Error m ->
            Printf.printf "%s: %s\n" file m;
            ok := false
        | Ok def ->
            Printf.printf "%s: ok (%s, %d sessions x %d slots)\n" file
              def.Core.Scenario_def.name def.Core.Scenario_def.sessions
              def.Core.Scenario_def.slots;
            if print then print_endline (Core.Scenario_def.to_string def))
      files;
    if !ok then `Ok () else `Error (false, "scenario: invalid files")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and validate scenario FILEs without running them.")
    Term.(ret (const run $ obs_term $ scenario_files_arg $ print_arg))

let scenario_cmd =
  Cmd.group
    (Cmd.info "scenario"
       ~doc:"Declarative datacenter-in-a-box system tests (docs/scenarios.md).")
    [ scenario_run_cmd; scenario_check_cmd ]

(* --- replay --- *)

let replay_cmd =
  let store_arg =
    Arg.(
      required
      & opt (some dir) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:"The daemon's --log-dir directory (cemented chunks + live tail).")
  in
  let alg_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "alg" ] ~docv:"ALG"
          ~doc:"Challenger algorithm (a|b|det2d|homog).  Default: re-run each \
                session under the algorithm that originally served it.")
  in
  let session_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "session" ] ~docv:"ID" ~doc:"Replay only this session.")
  in
  let run () store alg session =
    match Core.Server_audit.replay_store ?alg ?session ~dir:store () with
    | Error m -> `Error (false, "replay: " ^ m)
    | Ok { Core.Server_audit.rows; failures } ->
        let tbl =
          Core.Table.create
            ~header:
              [ "session"; "scenario"; "slots"; "old"; "old cost"; "old ratio";
                "new"; "new cost"; "new ratio"; "OPT"; "delta%" ]
        in
        List.iter
          (fun (r : Core.Server_audit.row) ->
            let delta =
              if r.old_cost > 0. then
                100. *. (r.new_cost -. r.old_cost) /. r.old_cost
              else 0.
            in
            Core.Table.add_row tbl
              [ r.r_id; r.r_scenario; string_of_int r.slots; r.old_alg;
                Printf.sprintf "%.3f" r.old_cost;
                Printf.sprintf "%.4f" r.old_ratio; r.new_alg;
                Printf.sprintf "%.3f" r.new_cost;
                Printf.sprintf "%.4f" r.new_ratio;
                Printf.sprintf "%.3f" r.opt_cost;
                Printf.sprintf "%+.2f" delta ])
          rows;
        Core.Table.print tbl;
        List.iter
          (fun (id, why) -> Printf.printf "skipped %s: %s\n" id why)
          failures;
        if rows = [] then `Error (false, "replay: no session could be replayed")
        else `Ok ()
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Reconstruct recorded sessions from a daemon's incremental store \
             (--log-dir) and re-run them — under the original algorithm and an \
             optional challenger — reporting cost and competitive ratio against \
             the exact offline optimum (docs/durability.md).")
    Term.(ret (const run $ obs_term $ store_arg $ alg_arg $ session_arg))

let () =
  let doc = "Right-sizing heterogeneous data centers (SPAA 2021 reproduction)" in
  let info = Cmd.info "rightsizer" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; report_cmd; verify_cmd; solve_cmd; online_cmd; arena_cmd;
       compare_cmd; simulate_cmd; analyze_cmd; plan_cmd; serve_cmd; monitor_cmd; scenario_cmd;
       replay_cmd ]))

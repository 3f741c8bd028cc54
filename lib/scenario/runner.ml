module P = Server.Protocol
module Client = Server.Client
module Spawn = Server.Spawn

type session_result = {
  id : string;
  slots_fed : int;
  replayed : int;
  online_cost : float;
  operating : float;
  switching : float;
  opt_cost : float;
  ratio : float;
  avail_opt : float option;
  oracle_match : bool option;
}

type race_result = {
  predictor : string;
  window : int;
  race_cost : float;
  vs_online : float;
}

type fleet_result = {
  counts : int array;
  capex : float;
  total : float;
  exhaustive : bool;
}

type crash_result = { exit_code : int; refed_from : int list }

type metrics_summary = {
  decisions : float;
  p50_req_us : float option;
  p99_req_us : float option;
  regret_ratio : float option;
  audit_runs : float;
}

type outcome = {
  def : Def.t;
  alg : string;
  theory_bound : float;
  ratio_max : float;
  sessions : session_result list;
  race : race_result option;
  fleet : fleet_result option;
  metrics : metrics_summary option;
  crash : crash_result option;
  injected_retries : int;
  reconnects : int;
  wall_s : float;
  workdir : string;
  failures : string list;
}

(* --- plumbing --------------------------------------------------------- *)

exception Conn_lost of string
exception Fatal of string

let fatal fmt = Printf.ksprintf (fun m -> raise (Fatal m)) fmt

let ok_or_lost = function Ok v -> v | Error m -> raise (Conn_lost m)

let fresh_workdir name =
  let root = Filename.get_temp_dir_name () in
  let rec go i =
    let dir =
      Filename.concat root
        (Printf.sprintf "scenario-%s-%d-%d" name (Unix.getpid ()) i)
    in
    match Unix.mkdir dir 0o700 with
    | () -> Ok dir
    | exception Unix.Unix_error (EEXIST, _, _) when i < 100 -> go (i + 1)
    | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "cannot create workdir %s: %s" dir (Unix.error_message e))
  in
  go 0

(* The scratch dir holds the socket, the daemon log and, in log mode,
   the [store/] subdirectory. *)
let rec remove_workdir dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
      Array.iter
        (fun e ->
          let path = Filename.concat dir e in
          try Sys.remove path with Sys_error _ -> remove_workdir path)
        entries;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ())

(* The instance a served session solves ({!Server.Session.instance});
   [Def.validate] has checked that the base scenario exists. *)
let instance ?avail def loads =
  match Server.Session.instance ?avail ~scenario:def.Def.base loads with
  | Some inst -> inst
  | None -> fatal "unknown base scenario %s" def.Def.base

(* --- the drive loop --------------------------------------------------- *)

type drive = {
  def : Def.t;
  target : Client.target;
  ids : string array;
  loads : float array array;
  seqs : int array;                       (* next slot to feed, per session *)
  decided : Model.Config.t array array;  (* [|session|].(slot), [||] = missing *)
  mutable conn : Client.t option;
  mutable daemon : Spawn.t;
  respawn : Spawn.config;                 (* the --resume config for the crash leg *)
  mutable crash_pending : bool;
  mutable crash : crash_result option;
  mutable alg : string;
  mutable injected : int;
  mutable reconnects : int;
  mutable replayed : int array;
}

let close_conn st =
  match st.conn with
  | None -> ()
  | Some c ->
      Client.close c;
      st.conn <- None

(* Connect (retrying while the daemon lives — the accept fault site closes
   fresh connections) and re-attach every session, resynchronising each
   seq to the daemon's processed count when it fell back (crash leg). *)
let connect_and_attach st =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec conn () =
    match Client.connect st.target with
    | Ok c -> c
    | Error m ->
        if not (Spawn.alive st.daemon) then raise (Conn_lost ("daemon gone: " ^ m))
        else if Unix.gettimeofday () > deadline then
          fatal "cannot reconnect to daemon: %s" m
        else begin
          Unix.sleepf 0.05;
          conn ()
        end
  in
  let c = conn () in
  match
    ok_or_lost (Client.hello c);
    Array.iteri
      (fun k id ->
        ok_or_lost
          (Client.send c
             (P.Create_session
                { id; scenario = st.def.Def.base;
                  max_horizon = Some st.def.Def.slots; alg = st.def.Def.alg }));
        match ok_or_lost (Client.recv c) with
        | P.Session { alg; fed; _ } ->
            st.alg <- alg;
            if fed < st.seqs.(k) then st.seqs.(k) <- fed
        | P.Error { code; msg; _ } ->
            fatal "create-session %s: %s (%s)" id msg (P.error_code_to_string code)
        | _ -> fatal "unexpected create-session reply for %s" id)
      st.ids
  with
  | () -> st.conn <- Some c
  | exception e ->
      Client.close c;
      raise e

(* One pass of pipelined rounds; raises [Conn_lost] on any transport
   break (fault site, crash), leaving [seqs] at the resync point. *)
let feed_pass st =
  let c = match st.conn with Some c -> c | None -> assert false in
  let slots = st.def.Def.slots in
  let unfinished () = Array.exists (fun s -> s < slots) st.seqs in
  while unfinished () do
    let sent = ref [] in
    Array.iteri
      (fun k seq ->
        if seq < slots then begin
          let n = min st.def.Def.batch (slots - seq) in
          ok_or_lost
            (Client.send c
               (P.Feed { id = st.ids.(k); seq; loads = Array.sub st.loads.(k) seq n }));
          sent := (k, seq, n) :: !sent
        end)
      st.seqs;
    List.iter
      (fun (k, seq, n) ->
        match ok_or_lost (Client.recv c) with
        | P.Decisions { seq = rseq; configs; _ } ->
            if rseq <> seq || Array.length configs <> n then
              fatal "misaligned decisions for %s at seq %d" st.ids.(k) seq;
            Array.iteri
              (fun i x ->
                if Array.length st.decided.(k).(seq + i) > 0 then begin
                  st.replayed.(k) <- st.replayed.(k) + 1;
                  if st.decided.(k).(seq + i) <> x then
                    fatal "replay divergence: %s slot %d changed after resume"
                      st.ids.(k) (seq + i)
                end;
                st.decided.(k).(seq + i) <- x)
              configs;
            st.seqs.(k) <- seq + n
        | P.Error { code = P.Injected; _ } ->
            st.injected <- st.injected + 1;
            if st.injected > st.def.Def.verify.Def.max_injected_retries then
              fatal "gave up after %d injected-fault retries" st.injected
        | P.Error { code; msg; _ } ->
            fatal "feed %s at seq %d: %s (%s)" st.ids.(k) seq msg
              (P.error_code_to_string code)
        | _ -> fatal "unexpected feed reply for %s" st.ids.(k))
      (List.rev !sent)
  done

(* A transport break either means a fault-injected drop (daemon still
   alive: reconnect) or the scripted crash (respawn with --resume). *)
let handle_lost st msg =
  close_conn st;
  if Spawn.alive st.daemon then begin
    st.reconnects <- st.reconnects + 1;
    if st.reconnects > 1000 then fatal "too many reconnects (last: %s)" msg
  end
  else begin
    let status =
      match Spawn.wait_exit ~timeout_s:10. st.daemon with
      | Ok s -> s
      | Error m -> fatal "daemon vanished but did not exit: %s" m
    in
    let code = match status with Unix.WEXITED c -> c | WSIGNALED s -> -s | WSTOPPED s -> -s in
    if not st.crash_pending then
      fatal "daemon died unexpectedly (status %d; last: %s; log: %s)" code msg
        (Spawn.log_tail st.daemon);
    if code <> 3 then
      fatal "crash leg: expected exit 3, got status %d (log: %s)" code
        (Spawn.log_tail st.daemon);
    st.crash_pending <- false;
    st.crash <-
      Some { exit_code = code; refed_from = Array.to_list (Array.copy st.seqs) };
    match Spawn.start st.respawn with
    | Error m -> fatal "respawn after crash: %s" m
    | Ok d -> (
        st.daemon <- d;
        match Spawn.wait_ready d with
        | Ok () -> ()
        | Error m -> fatal "respawned daemon not ready: %s" m)
  end

let drive st =
  let finished = ref false in
  while not !finished do
    match
      (match st.conn with None -> connect_and_attach st | Some _ -> ());
      feed_pass st
    with
    | () -> finished := true
    | exception Conn_lost m -> handle_lost st m
  done;
  (* the crash was scripted but the daemon survived the whole feed: the
     trip point never fired, which means the scenario under-feeds it *)
  if st.crash_pending then fatal "crash-after never tripped during the feed"

(* --- metrics ----------------------------------------------------------- *)

let scrape_row ~port =
  match Server.Monitor.scrape ~port with
  | Error m -> Error m
  | Ok body -> (
      match Server.Monitor.parse body with
      | Error m -> Error m
      | Ok snap -> Ok (Server.Monitor.row_of snap))

let metrics_phase st ~port ~failures =
  match scrape_row ~port with
  | Error m ->
      failures := Printf.sprintf "metrics: first scrape failed: %s" m :: !failures;
      None
  | Ok row1 -> (
      (* bump the request counter over the wire so the second scrape has
         something to be monotonic about *)
      (try
         (match st.conn with None -> connect_and_attach st | Some _ -> ());
         match st.conn with
         | Some c ->
             ok_or_lost (Client.send c P.Stats);
             ignore (ok_or_lost (Client.recv c))
         | None -> ()
       with Conn_lost _ | Fatal _ -> close_conn st);
      (* the audit worker is asynchronous: give a scheduled batch time to
         land before reading the regret gauges *)
      let audit_armed = st.def.Def.daemon.Def.audit <> None in
      let deadline = Unix.gettimeofday () +. 10. in
      let rec settle () =
        match scrape_row ~port with
        | Error m ->
            failures := Printf.sprintf "metrics: scrape failed: %s" m :: !failures;
            None
        | Ok row ->
            if audit_armed && row.Server.Monitor.audit_runs < 1.
               && Unix.gettimeofday () < deadline then begin
              Unix.sleepf 0.1;
              settle ()
            end
            else Some row
      in
      match settle () with
      | None -> None
      | Some row2 ->
          if row2.Server.Monitor.decisions < row1.Server.Monitor.decisions then
            failures :=
              Printf.sprintf "metrics: decisions counter went backwards (%.0f -> %.0f)"
                row1.Server.Monitor.decisions row2.Server.Monitor.decisions
              :: !failures;
          if row2.Server.Monitor.requests <= row1.Server.Monitor.requests then
            failures := "metrics: request counter did not advance between scrapes"
                        :: !failures;
          let audit_runs = row2.Server.Monitor.audit_runs in
          if audit_armed then begin
            if audit_runs < 1. then
              failures := "audit: no shadow-oracle batch completed" :: !failures;
            let raised = row2.Server.Monitor.audit_failures in
            if raised > 0. then
              failures := Printf.sprintf "audit: %.0f session replay(s) raised" raised :: !failures;
            match row2.Server.Monitor.regret_ratio with
            | Some r when r < 1. -. Server.Audit.below_opt_allowance ->
                failures :=
                  Printf.sprintf "audit: regret ratio %.6f below 1 (beat OPT?)" r
                  :: !failures
            | _ -> ()
          end;
          Some
            { decisions = row2.Server.Monitor.decisions;
              p50_req_us = row2.Server.Monitor.p50_req_us;
              p99_req_us = row2.Server.Monitor.p99_req_us;
              regret_ratio = row2.Server.Monitor.regret_ratio;
              audit_runs })

(* --- offline verification ---------------------------------------------- *)

let verify_session def ~id ~loads ~decisions ~replayed ~failures =
  let missing = Array.exists (fun c -> Array.length c = 0) decisions in
  if missing then begin
    failures := Printf.sprintf "%s: incomplete decisions" id :: !failures;
    None
  end
  else begin
    let oracle_match =
      if not def.Def.verify.Def.oracle then None
      else
        match
          Server.Session.replay
            { Server.Session.scenario = def.Def.base;
              max_horizon = Some def.Def.slots;
              alg = def.Def.alg }
            ~loads
        with
        | Error (_, m) ->
            failures := Printf.sprintf "%s: oracle replay failed: %s" id m :: !failures;
            Some false
        | Ok want ->
            let same = want = decisions in
            if not same then
              failures :=
                Printf.sprintf "%s: served decisions diverge from the sequential oracle"
                  id
                :: !failures;
            Some same
    in
    let inst = instance def loads in
    let online = Model.Cost.schedule inst decisions in
    let operating = Model.Cost.schedule_operating inst decisions in
    let switching = Model.Cost.schedule_switching inst decisions in
    let opt = Online.Harness.opt_cost inst in
    let ratio = Online.Harness.ratio ~cost:online ~opt in
    if not (Float.is_finite online) then
      failures := Printf.sprintf "%s: online cost is infinite (infeasible slot)" id
                  :: !failures;
    if ratio < 1. -. Server.Audit.below_opt_allowance then
      failures :=
        Printf.sprintf "%s: ratio %.6f below 1 (online %.6f beat OPT %.6f)" id ratio
          online opt
        :: !failures;
    let avail_opt =
      let inst_avail = instance ~avail:true def loads in
      if not inst_avail.Model.Instance.size_varying then None
      else begin
        let solved =
          try Some (Online.Harness.opt_cost inst_avail)
          with Invalid_argument _ -> None
        in
        match solved with
        | Some c when Float.is_finite c -> Some c
        | _ ->
            failures :=
              Printf.sprintf
                "%s: load does not fit the reconfigured (avail) capacity" id
              :: !failures;
            None
      end
    in
    Some
      { id; slots_fed = Array.length decisions; replayed;
        online_cost = online; operating; switching; opt_cost = opt; ratio;
        avail_opt; oracle_match }
  end

let predictor_label = function
  | Def.Naive -> "naive"
  | Def.Seasonal p -> Printf.sprintf "seasonal-naive(%d)" p
  | Def.Ewma -> "ewma"
  | Def.Holt -> "holt"
  | Def.Holt_winters p -> Printf.sprintf "holt-winters(%d)" p

let predictor_make = function
  | Def.Naive -> fun () -> Forecast.Predictor.naive_last ()
  | Def.Seasonal p -> fun () -> Forecast.Predictor.seasonal_naive ~period:p
  | Def.Ewma -> fun () -> Forecast.Predictor.ewma ~alpha:0.3
  | Def.Holt -> fun () -> Forecast.Predictor.holt ~alpha:0.4 ~beta:0.1
  | Def.Holt_winters p ->
      fun () -> Forecast.Predictor.holt_winters ~alpha:0.4 ~beta:0.1 ~gamma:0.1 ~period:p

let race_phase def inst ~online_cost ~failures =
  match def.Def.race with
  | None -> None
  | Some r -> (
      match
        Forecast.Predictive.plan ~make:(predictor_make r.Def.predictor)
          ~window:r.Def.window inst
      with
      | exception e ->
          failures := Printf.sprintf "race: predictive plan raised: %s"
                        (Printexc.to_string e)
                      :: !failures;
          None
      | sched ->
          let cost = Model.Cost.schedule inst sched in
          if not (Float.is_finite cost) then begin
            failures := "race: predictive schedule is infeasible" :: !failures;
            None
          end
          else
            Some
              { predictor = predictor_label r.Def.predictor;
                window = r.Def.window;
                race_cost = cost;
                vs_online = (if online_cost > 0. then cost /. online_cost else 1.) })

let fleet_phase def inst ~failures =
  match def.Def.fleet with
  | None -> None
  | Some f -> (
      let candidates =
        Array.mapi
          (fun j (st : Model.Server_type.t) ->
            { Planner.Fleet.server = st;
              capex = List.nth f.Def.capex j;
              fn = inst.Model.Instance.cost ~time:0 ~typ:j })
          inst.Model.Instance.types
      in
      match
        Planner.Fleet.optimize ~budget:f.Def.budget ~candidates
          ~load:inst.Model.Instance.load ()
      with
      | exception Invalid_argument m ->
          failures := Printf.sprintf "fleet: %s" m :: !failures;
          None
      | plan ->
          Some
            { counts = plan.Planner.Fleet.counts;
              capex = plan.Planner.Fleet.capex;
              total = plan.Planner.Fleet.total;
              exhaustive = plan.Planner.Fleet.exhaustive })

(* --- the run ----------------------------------------------------------- *)

let session_ids def =
  let base =
    if String.length def.Def.name > 59 then String.sub def.Def.name 0 59
    else def.Def.name
  in
  Array.init def.Def.sessions (fun i -> Printf.sprintf "%s-%03d" base i)

let spawn_config def ~bin ~workdir ~metrics_port ~resume =
  let d = def.Def.daemon in
  let store = if d.Def.log_dir then Some (Filename.concat workdir "store") else None in
  { (Spawn.config ~bin ~sock:(Filename.concat workdir "daemon.sock")
       ~log:(Filename.concat workdir "daemon.log"))
    with
    Spawn.metrics_port;
    resume = (if resume then store else None);
    crash_after = (if resume then None else d.Def.crash_after);
    audit = d.Def.audit;
    faults = List.map (fun (site, plan) -> site, Def.plan_to_string plan) d.Def.faults;
    fault_seed = Some d.Def.fault_seed;
    log_dir = store;
    cement_every = d.Def.cement_every }

let run ?bin ?workdir def =
  (* A fault-injected daemon drops connections mid-write; turn the
     resulting SIGPIPE into an EPIPE the reconnect path can handle. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  match Def.validate def with
  | Error m -> Error m
  | Ok def -> (
      let bin = match bin with Some b -> b | None -> Sys.executable_name in
      let owns_workdir = workdir = None in
      let workdir_r =
        match workdir with Some d -> Ok d | None -> fresh_workdir def.Def.name
      in
      match workdir_r with
      | Error m -> Error m
      | Ok workdir -> (
          let t0 = Unix.gettimeofday () in
          let failures = ref [] in
          let ids = session_ids def in
          let loads =
            Array.init def.Def.sessions (fun i -> Def.loads def ~session_index:i)
          in
          let metrics_port =
            if def.Def.daemon.Def.metrics then Some (Spawn.pick_free_port ()) else None
          in
          let cfg = spawn_config def ~bin ~workdir ~metrics_port ~resume:false in
          let respawn = spawn_config def ~bin ~workdir ~metrics_port ~resume:true in
          match Spawn.start cfg with
          | Error m ->
              if owns_workdir then remove_workdir workdir;
              Error m
          | Ok daemon -> (
              match Spawn.wait_ready daemon with
              | Error m ->
                  ignore (Spawn.stop daemon);
                  if owns_workdir then remove_workdir workdir;
                  Error m
              | Ok () ->
                  let st =
                    { def; target = Client.Unix_path cfg.Spawn.sock; ids; loads;
                      seqs = Array.make def.Def.sessions 0;
                      decided =
                        Array.init def.Def.sessions (fun _ ->
                            Array.make def.Def.slots [||]);
                      conn = None; daemon; respawn;
                      crash_pending = def.Def.daemon.Def.crash_after <> None;
                      crash = None; alg = "?"; injected = 0; reconnects = 0;
                      replayed = Array.make def.Def.sessions 0 }
                  in
                  (try drive st with
                  | Fatal m -> failures := m :: !failures
                  | Conn_lost m -> failures := ("connection lost: " ^ m) :: !failures);
                  let metrics =
                    match metrics_port with
                    | Some port when !failures = [] -> metrics_phase st ~port ~failures
                    | _ -> None
                  in
                  close_conn st;
                  (match Spawn.stop st.daemon with
                  | Unix.WEXITED 0 -> ()
                  | Unix.WEXITED c ->
                      failures :=
                        Printf.sprintf "daemon exited %d on SIGTERM (log: %s)" c
                          (Spawn.log_tail st.daemon)
                        :: !failures
                  | Unix.WSIGNALED s when s = Sys.sigterm -> ()
                  | Unix.WSIGNALED s ->
                      failures :=
                        Printf.sprintf "daemon needed signal %d to die" s :: !failures
                  | Unix.WSTOPPED _ -> failures := "daemon stopped, not exited" :: !failures);
                  let sessions =
                    if !failures <> [] && Array.exists (fun s -> s < def.Def.slots) st.seqs
                    then []  (* the drive never finished; costs would be noise *)
                    else
                      List.filter_map Fun.id
                        (List.init def.Def.sessions (fun k ->
                             (try
                                verify_session def ~id:ids.(k) ~loads:loads.(k)
                                  ~decisions:st.decided.(k) ~replayed:st.replayed.(k)
                                  ~failures
                              with Fatal m ->
                                failures := m :: !failures;
                                None)))
                  in
                  let ratio_max =
                    List.fold_left
                      (fun a (s : session_result) -> Float.max a s.ratio)
                      neg_infinity sessions
                  in
                  if sessions <> [] && ratio_max > def.Def.verify.Def.ratio_bound then
                    failures :=
                      Printf.sprintf
                        "competitive ratio %.4f exceeds the scenario bound %.4f"
                        ratio_max def.Def.verify.Def.ratio_bound
                      :: !failures;
                  let theory_bound, race, fleet =
                    match sessions with
                    | [] -> Float.nan, None, None
                    | s0 :: _ ->
                        let inst = instance def loads.(0) in
                        let alg_v =
                          match st.alg with
                          | "a" -> `A
                          | "b" -> `B
                          | "det2d" -> `Det2d
                          | "homog" -> `Homog
                          | _ ->
                              if inst.Model.Instance.time_independent then `A else `B
                        in
                        ( Online.Harness.competitive_bound inst ~algorithm:alg_v,
                          race_phase def inst ~online_cost:s0.online_cost ~failures,
                          fleet_phase def inst ~failures )
                  in
                  if def.Def.daemon.Def.crash_after <> None && st.crash = None
                     && !failures = [] then
                    failures := "crash leg never happened" :: !failures;
                  let outcome =
                    { def; alg = st.alg; theory_bound; ratio_max; sessions; race;
                      fleet; metrics; crash = st.crash; injected_retries = st.injected;
                      reconnects = st.reconnects;
                      wall_s = Unix.gettimeofday () -. t0; workdir;
                      failures = List.rev !failures }
                  in
                  if outcome.failures = [] && owns_workdir then remove_workdir workdir;
                  Ok outcome)))

(* --- JSON artifact ----------------------------------------------------- *)

let jstr buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (Obs.Events.json_escape s);
  Buffer.add_char buf '"'

let jnum buf v =
  if Float.is_finite v then
    let s = Printf.sprintf "%.12g" v in
    let s = if float_of_string s = v then s else Printf.sprintf "%.17g" v in
    Buffer.add_string buf s
  else Buffer.add_string buf "null"

let jopt buf = function None -> Buffer.add_string buf "null" | Some v -> jnum buf v

let jfield buf first name fill =
  if not !first then Buffer.add_char buf ',';
  first := false;
  jstr buf name;
  Buffer.add_char buf ':';
  fill ()

let jobj buf fill =
  Buffer.add_char buf '{';
  let first = ref true in
  fill (jfield buf first);
  Buffer.add_char buf '}'

let jarr buf xs each =
  Buffer.add_char buf '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      each x)
    xs;
  Buffer.add_char buf ']'

let to_json (o : outcome) =
  let buf = Buffer.create 2048 in
  let d = o.def in
  jobj buf (fun field ->
      field "scenario" (fun () -> jstr buf d.Def.name);
      field "base" (fun () -> jstr buf d.Def.base);
      field "alg" (fun () -> jstr buf o.alg);
      field "slots" (fun () -> jnum buf (float_of_int d.Def.slots));
      field "session_count" (fun () -> jnum buf (float_of_int d.Def.sessions));
      field "seed" (fun () -> jnum buf (float_of_int d.Def.seed));
      field "passed" (fun () ->
          Buffer.add_string buf (if o.failures = [] then "true" else "false"));
      field "wall_s" (fun () -> jnum buf o.wall_s);
      field "ratio" (fun () ->
          jobj buf (fun f ->
              f "max" (fun () -> jnum buf o.ratio_max);
              f "bound" (fun () -> jnum buf d.Def.verify.Def.ratio_bound);
              f "theory" (fun () -> jnum buf o.theory_bound)));
      field "faults" (fun () ->
          jobj buf (fun f ->
              f "injected_retries" (fun () -> jnum buf (float_of_int o.injected_retries));
              f "reconnects" (fun () -> jnum buf (float_of_int o.reconnects))));
      field "crash" (fun () ->
          match o.crash with
          | None -> Buffer.add_string buf "null"
          | Some c ->
              jobj buf (fun f ->
                  f "exit_code" (fun () -> jnum buf (float_of_int c.exit_code));
                  f "refed_from" (fun () ->
                      jarr buf c.refed_from (fun s -> jnum buf (float_of_int s)))));
      field "metrics" (fun () ->
          match o.metrics with
          | None -> Buffer.add_string buf "null"
          | Some m ->
              jobj buf (fun f ->
                  f "decisions" (fun () -> jnum buf m.decisions);
                  f "p50_request_us" (fun () -> jopt buf m.p50_req_us);
                  f "p99_request_us" (fun () -> jopt buf m.p99_req_us);
                  f "regret_ratio" (fun () -> jopt buf m.regret_ratio);
                  f "audit_runs" (fun () -> jnum buf m.audit_runs)));
      field "race" (fun () ->
          match o.race with
          | None -> Buffer.add_string buf "null"
          | Some r ->
              jobj buf (fun f ->
                  f "predictor" (fun () -> jstr buf r.predictor);
                  f "window" (fun () -> jnum buf (float_of_int r.window));
                  f "cost" (fun () -> jnum buf r.race_cost);
                  f "vs_online" (fun () -> jnum buf r.vs_online)));
      field "fleet" (fun () ->
          match o.fleet with
          | None -> Buffer.add_string buf "null"
          | Some p ->
              jobj buf (fun f ->
                  f "counts" (fun () ->
                      jarr buf (Array.to_list p.counts) (fun c ->
                          jnum buf (float_of_int c)));
                  f "capex" (fun () -> jnum buf p.capex);
                  f "total" (fun () -> jnum buf p.total);
                  f "exhaustive" (fun () ->
                      Buffer.add_string buf (string_of_bool p.exhaustive))));
      field "sessions" (fun () ->
          jarr buf o.sessions (fun (s : session_result) ->
              jobj buf (fun f ->
                  f "id" (fun () -> jstr buf s.id);
                  f "slots" (fun () -> jnum buf (float_of_int s.slots_fed));
                  f "replayed" (fun () -> jnum buf (float_of_int s.replayed));
                  f "online_cost" (fun () -> jnum buf s.online_cost);
                  f "operating" (fun () -> jnum buf s.operating);
                  f "switching" (fun () -> jnum buf s.switching);
                  f "opt_cost" (fun () -> jnum buf s.opt_cost);
                  f "ratio" (fun () -> jnum buf s.ratio);
                  f "avail_opt" (fun () -> jopt buf s.avail_opt);
                  f "oracle_match" (fun () ->
                      match s.oracle_match with
                      | None -> Buffer.add_string buf "null"
                      | Some b -> Buffer.add_string buf (string_of_bool b)))));
      field "failures" (fun () -> jarr buf o.failures (fun m -> jstr buf m)));
  Buffer.contents buf

let write_artifact ~dir (o : outcome) =
  match
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let path = Filename.concat dir (o.def.Def.name ^ ".json") in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (to_json o);
        Out_channel.output_char oc '\n');
    path
  with
  | path -> Ok path
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Sys_error m -> Error m

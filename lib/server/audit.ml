(* The shadow oracle: periodically replay sampled live sessions'
   decision histories against the offline optimum and publish the gap
   as telemetry.  This is the paper's competitive ratio measured
   continuously on real traffic — [Online.Harness.opt_cost] computes
   OPT on exactly the loads the session was fed, [Model.Cost.schedule]
   prices the decisions the online algorithm actually made, and the
   ratio of the two is an empirical sample of the guarantee the
   theorems bound (Theorem 8: 2d+1 for algorithm A, 2d for
   load-independent costs; Theorem 13: 2d+1+c(I) for B).

   Concurrency: the daemon's select loop must never block on a DP
   solve, so audits run on one background [Thread].  The handoff is
   strictly copy-in / copy-out: the main thread snapshots each sampled
   session's loads and decisions (plain arrays, no sharing) into a
   batch, the worker solves and writes results into audit-owned
   histograms and cells, and the exporter reads them racily but
   tear-free (single-writer histograms; boxed-float cells).  [~sync]
   runs batches inline instead — deterministic for tests. *)

type sample = {
  session_id : string;
  scenario : string;
  loads : float array;
  decisions : Model.Config.t array;
}

type batch = {
  samples : sample list;
  stepped_at : int;  (* daemon slot clock when the batch was cut *)
}

type t = {
  every : int;
  nsample : int;
  sync : bool;
  stepped_now : unit -> int;
  mutable last_stepped : int;
  (* worker state *)
  lock : Mutex.t;
  cond : Condition.t;
  queue : batch Queue.t;
  mutable stopping : bool;
  mutable worker : Thread.t option;
  (* results: written by the worker (or inline in sync mode), read by
     the metrics exporter *)
  h_regret_abs : Obs.Histogram.t;
  h_regret_ratio : Obs.Histogram.t;
  mutable last_ratio : float;   (* max over the last batch; nan before *)
  mutable last_abs : float;
  mutable last_lag : float;     (* slots stepped while the batch waited *)
  mutable runs : int;
  mutable audited : int;
  mutable failures : int;       (* sessions whose replay raised *)
}

(* OPT is optimal, so online >= OPT up to float noise in the two cost
   sums.  The published ratio is raw: a reader allows this much relative
   noise below 1 before calling it a violation, instead of the audit
   clamping a real one away. *)
let below_opt_allowance = 1e-9

let audit_one s =
  Util.Faultinj.hit "audit.replay";
  Option.map
    (fun inst ->
      let online = Model.Cost.schedule inst s.decisions in
      let opt = Online.Harness.opt_cost inst in
      (online -. opt, Online.Harness.ratio ~cost:online ~opt))
    (Session.instance ~scenario:s.scenario s.loads)

let run_batch t b =
  let lag = float_of_int (max 0 (t.stepped_now () - b.stepped_at)) in
  let worst_ratio = ref Float.nan and worst_abs = ref Float.nan in
  List.iter
    (fun s ->
      match (try audit_one s with _ -> t.failures <- t.failures + 1; None) with
      | None -> ()
      | Some (abs_regret, ratio) ->
          t.audited <- t.audited + 1;
          Obs.Histogram.observe t.h_regret_abs abs_regret;
          Obs.Histogram.observe t.h_regret_ratio ratio;
          if Float.is_nan !worst_ratio || ratio > !worst_ratio then
            worst_ratio := ratio;
          if Float.is_nan !worst_abs || abs_regret > !worst_abs then
            worst_abs := abs_regret)
    b.samples;
  t.runs <- t.runs + 1;
  t.last_lag <- lag;
  if not (Float.is_nan !worst_ratio) then begin
    t.last_ratio <- !worst_ratio;
    t.last_abs <- !worst_abs
  end

let worker_loop t =
  let rec next () =
    Mutex.lock t.lock;
    let rec wait () =
      if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
      else if t.stopping then None
      else begin
        Condition.wait t.cond t.lock;
        wait ()
      end
    in
    let b = wait () in
    Mutex.unlock t.lock;
    match b with
    | None -> ()
    | Some b ->
        run_batch t b;
        next ()
  in
  next ()

let create ?(sync = false) ~every ~sample ~stepped_now () =
  if every < 1 then invalid_arg "Audit.create: every must be >= 1";
  if sample < 1 then invalid_arg "Audit.create: sample must be >= 1";
  let t =
    { every;
      nsample = sample;
      sync;
      stepped_now;
      last_stepped = 0;
      lock = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      worker = None;
      h_regret_abs = Obs.Histogram.create ~lo:1e-6 ~hi:1e9 ~buckets_per_decade:2 ();
      h_regret_ratio = Obs.Histogram.create ~lo:1.0 ~hi:1e3 ~buckets_per_decade:20 ();
      last_ratio = Float.nan;
      last_abs = Float.nan;
      last_lag = 0.;
      runs = 0;
      audited = 0;
      failures = 0 }
  in
  if not sync then t.worker <- Some (Thread.create worker_loop t);
  t

let cut_batch t sessions =
  (* Deterministic sample: the [nsample] sessions that have streamed
     the most slots (ties by id) — the longest histories give the
     tightest empirical ratios and the most work is already sunk. *)
  let eligible =
    List.filter (fun s -> Session.fed s > 0) sessions
    |> List.sort (fun a b ->
           match compare (Session.fed b) (Session.fed a) with
           | 0 -> String.compare (Session.id a) (Session.id b)
           | c -> c)
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | s :: rest ->
        { session_id = Session.id s;
          scenario = (Session.spec s).Session.scenario;
          loads = Session.loads s;
          decisions = Session.decisions_from s ~from_:0 }
        :: take (n - 1) rest
  in
  { samples = take t.nsample eligible; stepped_at = t.stepped_now () }

let maybe_run t ~sessions =
  let stepped = t.stepped_now () in
  if stepped - t.last_stepped >= t.every then begin
    t.last_stepped <- stepped;
    let b = cut_batch t (sessions ()) in
    if b.samples <> [] then
      if t.sync then run_batch t b
      else begin
        Mutex.lock t.lock;
        (* Never queue more than one pending batch: if the worker is
           behind, the newest snapshot wins — audits are telemetry, not
           a ledger. *)
        Queue.clear t.queue;
        Queue.push b t.queue;
        Condition.signal t.cond;
        Mutex.unlock t.lock
      end
  end

let stop t =
  match t.worker with
  | None -> ()
  | Some th ->
      Mutex.lock t.lock;
      t.stopping <- true;
      Condition.signal t.cond;
      Mutex.unlock t.lock;
      Thread.join th;
      t.worker <- None

let runs t = t.runs
let audited t = t.audited
let last_regret_ratio t = t.last_ratio
let last_regret_abs t = t.last_abs

let gauges t =
  let g name v = (name, [], v) in
  [ g "audit.regret_ratio" t.last_ratio;
    g "audit.regret_abs" t.last_abs;
    g "audit.lag_rounds" t.last_lag ]

let counters t =
  [ ("audit.runs", t.runs);
    ("audit.sessions_audited", t.audited);
    ("audit.failures", t.failures) ]

let histograms t =
  [ ("audit.regret_abs_dist", Obs.Histogram.export t.h_regret_abs);
    ("audit.regret_ratio_dist", Obs.Histogram.export t.h_regret_ratio) ]

(* --- historical replay ------------------------------------------------ *)

type row = {
  r_id : string;
  r_scenario : string;
  slots : int;
  old_alg : string;
  new_alg : string;
  old_cost : float;
  new_cost : float;
  opt_cost : float;
  old_ratio : float;
  new_ratio : float;
}

type report = { rows : row list; failures : (string * string) list }

(* Re-run one recorded session from slot 0 under the alg the daemon
   served and, when it differs, under [alg], and price both against one
   OPT on the instance the session solved. *)
let replay_trace ?alg (t : Store.Replay.trace) =
  let ( let* ) = Result.bind in
  let rerun which alg =
    Result.map_error
      (fun (_, m) -> Printf.sprintf "%s alg %s: %s" which alg m)
      (Session.replay
         { Session.scenario = t.scenario; max_horizon = None; alg = Some alg }
         ~loads:t.loads)
  in
  let* inst =
    if Array.length t.loads = 0 then Error "no slots fed"
    else
      Option.to_result ~none:("unknown base scenario " ^ t.scenario)
        (Session.instance ~scenario:t.scenario t.loads)
  in
  let* old_decisions = rerun "old" t.alg_used in
  let new_alg = Option.value alg ~default:t.alg_used in
  let* new_decisions =
    if new_alg = t.alg_used then Ok old_decisions else rerun "new" new_alg
  in
  let opt = Online.Harness.opt_cost inst in
  let old_cost = Model.Cost.schedule inst old_decisions in
  let new_cost = Model.Cost.schedule inst new_decisions in
  Ok
    { r_id = t.id;
      r_scenario = t.scenario;
      slots = Array.length t.loads;
      old_alg = t.alg_used;
      new_alg;
      old_cost;
      new_cost;
      opt_cost = opt;
      old_ratio = Online.Harness.ratio ~cost:old_cost ~opt;
      new_ratio = Online.Harness.ratio ~cost:new_cost ~opt }

let replay_store ?alg ?session ~dir () =
  match Store.Replay.traces ~dir with
  | Error _ as e -> e
  | Ok all -> (
      let selected =
        match session with
        | None -> all
        | Some id -> List.filter (fun (t : Store.Replay.trace) -> t.id = id) all
      in
      match (selected, session) with
      | [], Some id -> Error (Printf.sprintf "no recorded session %s" id)
      | [], None -> Error "the store holds no sessions"
      | _ ->
          let rows, failures =
            List.partition_map
              (fun (t : Store.Replay.trace) ->
                match replay_trace ?alg t with
                | Ok row -> Either.Left row
                | Error m -> Either.Right (t.id, m))
              selected
          in
          Ok { rows; failures })

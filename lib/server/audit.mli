(** The shadow oracle: continuous empirical competitive-ratio auditing.

    Every [every] freshly stepped slots, the daemon hands the audit a
    copy-out snapshot of its [sample] longest-running sessions — loads
    fed, decisions returned, scenario name.  A background thread
    rebuilds each session's instance ({!Session.instance}), prices the
    online decisions with [Model.Cost.schedule], solves the offline
    optimum with [Online.Harness.opt_cost], and publishes:

    - [audit.regret_ratio] (gauge): the worst [online / OPT] over the
      last batch — an empirical sample of the paper's competitive
      ratio, published raw.  OPT is optimal, so a value below
      [1 - below_opt_allowance] is a violation, not noise;
    - [audit.regret_abs] (gauge) and [audit.regret_abs_dist] /
      [audit.regret_ratio_dist] (histograms): the absolute gap
      [online - OPT] (also raw) and the cumulative per-session
      distributions;
    - [audit.lag_rounds] (gauge): slots the daemon stepped while the
      batch waited for the worker — how stale the published ratio is;
    - [audit.runs] / [audit.sessions_audited] / [audit.failures]
      (counters).

    The handoff shares no mutable state: the select loop never blocks
    on a DP solve, and at most one batch is ever queued (a slow worker
    drops stale batches in favour of the newest snapshot).  [~sync]
    runs batches inline on the calling thread — deterministic for
    tests. *)

type t

val below_opt_allowance : float
(** The relative float noise ([1e-9]) a reader allows below a ratio of
    1: the online and OPT costs are sums of the same kind of float
    terms, so a ratio in [\[1 - below_opt_allowance, 1)] is rounding,
    and anything lower means the online schedule beat OPT — a replay or
    solver bug.  The scenario runner fails a run on it, both for this
    audit's gauge and for each session it judges itself. *)

val create :
  ?sync:bool ->
  every:int ->
  sample:int ->
  stepped_now:(unit -> int) ->
  unit ->
  t
(** [stepped_now] reads the daemon's total-stepped-slots clock (used
    both to schedule batches and to measure lag).  Spawns the worker
    thread unless [sync].  Raises [Invalid_argument] when [every] or
    [sample] is less than 1. *)

val maybe_run : t -> sessions:(unit -> Session.t list) -> unit
(** Called by the daemon after each scheduling round.  When at least
    [every] slots have been stepped since the last audit, snapshots up
    to [sample] sessions from [sessions ()] (only materialised when an
    audit is actually due) and submits the batch — inline in [sync]
    mode, to the worker otherwise. *)

val stop : t -> unit
(** Stop and join the worker (idempotent; no-op in [sync] mode).  A
    queued batch may be dropped. *)

val runs : t -> int
val audited : t -> int

val last_regret_ratio : t -> float
(** Worst [online / OPT] of the last completed batch; [nan] before the
    first one. *)

val last_regret_abs : t -> float

val gauges : t -> (string * (string * string) list * float) list
val counters : t -> (string * int) list
val histograms : t -> (string * Obs.Histogram.export) list
(** The audit's telemetry in the shapes {!Obs.Metrics_export}
    consumes — owned by this audit instance, not the process-wide
    registries, so concurrent daemons in one process (tests) do not
    cross-contaminate. *)

(** {1 Historical replay}

    [rightsizer replay] judges recorded sessions the way the audit
    judges live ones.  {!Store.Replay.traces} rebuilds each session's
    loads from the store; {!replay_store} re-runs them through
    {!Session.replay} — once under the algorithm the daemon served
    ([alg_used]), and once under a challenger — and prices both on
    {!Session.instance} against [Online.Harness.opt_cost].  The re-run
    of [alg_used] must reproduce the served decisions, because it runs
    the code path that served them. *)

type row = {
  r_id : string;
  r_scenario : string;
  slots : int;
  old_alg : string;
  new_alg : string;
  old_cost : float;
  new_cost : float;
  opt_cost : float;
  old_ratio : float;  (** [Online.Harness.ratio] of old_cost and opt, raw *)
  new_ratio : float;
}

type report = { rows : row list; failures : (string * string) list }
(** [failures] carries sessions that could not be replayed (unknown
    scenario, challenger alg inapplicable, nothing fed) as [(id, why)]. *)

val replay_store :
  ?alg:string -> ?session:string -> dir:string -> unit -> (report, string) result
(** Replay all sessions (or just [session]) in the store at [dir],
    challenging with [alg] when given (default: [alg_used] only, whose
    decisions the new columns then repeat).  [Error] means the store
    itself could not be read or selected nothing. *)

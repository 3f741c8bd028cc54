(** Execute a {!Def.t} against a {e real} daemon process.

    The runner is the end-to-end harness the e2e shell scripts used to
    approximate, as a library: it synthesises the per-session traces,
    spawns [rightsizer serve] over the v1 wire protocol
    ({!Server.Spawn}), drives every session with pipelined batched
    feeds — retrying {!Server.Protocol.Injected} frames, reconnecting
    through fault-injected connection drops, and riding through the
    scripted [--crash-after] exit-and-[--resume] leg — scrapes the
    telemetry plane, tears the daemon down gracefully, and only then
    verifies offline: bit-identity against the sequential oracle,
    online cost vs the offline DP optimum under the declared
    ratio bound, the avail-aware optimum for Section 4.3 bases, the
    forecast race and the fleet re-plan.

    Nothing raises for a {e scenario} failure: every broken invariant
    becomes an entry in {!outcome.failures} (the process-level failures
    too, when enough state exists to report), the JSON artifact is
    always written, and the CLI maps non-empty failures to exit 1. *)

type session_result = {
  id : string;
  slots_fed : int;
  replayed : int;   (** re-fed slots answered without stepping (resume/overlap) *)
  online_cost : float;
  operating : float;
  switching : float;
  opt_cost : float;         (** [Online.Harness.opt_cost] of {!Server.Session.instance} *)
  ratio : float;            (** [Online.Harness.ratio], raw: below 1 fails the run *)
  avail_opt : float option; (** avail-aware optimum (size-varying bases) *)
  oracle_match : bool option;  (** None when the oracle check is off *)
}

type race_result = {
  predictor : string;
  window : int;
  race_cost : float;        (** forecast-driven receding horizon, session 0 *)
  vs_online : float;        (** race_cost / online_cost *)
}

type fleet_result = {
  counts : int array;
  capex : float;
  total : float;
  exhaustive : bool;
}

type crash_result = {
  exit_code : int;          (** observed exit status of the crashed daemon *)
  refed_from : int list;    (** per session, the slot re-feeding restarted at *)
}

type metrics_summary = {
  decisions : float;
  p50_req_us : float option;
  p99_req_us : float option;
  regret_ratio : float option;
  audit_runs : float;
}

type outcome = {
  def : Def.t;
  alg : string;                  (** "a" or "b" (first session's reply) *)
  theory_bound : float;          (** the paper's guarantee for the instance *)
  ratio_max : float;             (** the largest session [ratio] *)
  sessions : session_result list;
  race : race_result option;
  fleet : fleet_result option;
  metrics : metrics_summary option;
  crash : crash_result option;
  injected_retries : int;
  reconnects : int;
  wall_s : float;
  workdir : string;
  failures : string list;        (** empty = scenario passed *)
}

val run : ?bin:string -> ?workdir:string -> Def.t -> (outcome, string) result
(** [bin] is the rightsizer binary (default [Sys.executable_name]);
    [workdir] the scratch dir for socket/log/store (default a fresh
    temp dir, removed again when the run passes).  [Error] only for
    harness-level breakage that leaves nothing to report (the workdir
    cannot be created, the daemon never started). *)

val to_json : outcome -> string
(** The per-scenario artifact: cost breakdown, ratios and bounds,
    latency quantiles, regret gauges, crash/fault counters, failures. *)

val write_artifact : dir:string -> outcome -> (string, string) result
(** Write [dir/<name>.json] (creating [dir]); returns the path. *)

(** Public facade of the right-sizing library.

    Reproduces "Algorithms for Right-Sizing Heterogeneous Data Centers"
    (Albers and Quedenfeld, SPAA 2021).  The sub-modules re-export the
    underlying libraries:

    - {!Fn}, {!Dispatch}: convex operating-cost functions and the
      capped-simplex dispatch of equation (1);
    - {!Server_type}, {!Instance}, {!Config}, {!Schedule}, {!Cost}:
      the problem model of Section 1;
    - {!Offline_dp}, {!Grid}, {!Brute_force}: Section 4's optimal and
      [(1+eps)]-approximate offline algorithms (incl. time-varying
      sizes);
    - {!Alg_a}, {!Alg_b}, {!Alg_c}, {!Prefix_opt}: the online algorithms
      of Sections 2 and 3;
    - {!Baselines}, {!Adversary}, {!Harness}: comparison policies and
      experiment machinery;
    - {!Workload}, {!Scenarios}: synthetic traces and named setups;
    - {!Daemon}, {!Server_protocol}, {!Server_codec},
      {!Server_session}, {!Server_client}: the multi-session serving
      daemon, its wire protocol and its client (see [docs/serving.md]);
    - {!Scenario_def}, {!Scenario_runner}: declarative system tests that
      spawn [serve] and drive it (see [docs/scenarios.md]);
    - {!Prng}, {!Stats}, {!Table}, {!Ascii_plot}: utilities.

    The top-level helpers cover the common calls. *)

module Fn = Convex.Fn
module Dispatch = Convex.Dispatch
module Scalar_min = Convex.Scalar_min
module Server_type = Model.Server_type
module Instance = Model.Instance
module Config = Model.Config
module Schedule = Model.Schedule
module Cost = Model.Cost
module Spec = Model.Spec
module Grid = Offline.Grid
module Transform = Offline.Transform
module Offline_dp = Offline.Dp
module Brute_force = Offline.Brute_force
module Graph_paper = Offline.Graph_paper
module Approx_witness = Offline.Approx_witness
module Prefix_opt = Online.Prefix_opt
module Alg_a = Online.Alg_a
module Alg_b = Online.Alg_b
module Alg_c = Online.Alg_c
module Alg_rand = Online.Alg_rand
module Alg_det2d = Online.Alg_det2d
module Alg_homog = Online.Alg_homog
module Stepper = Online.Stepper
module Streaming = Online.Streaming
module Analysis = Online.Analysis
module Baselines = Online.Baselines
module Adversary = Online.Adversary
module Harness = Online.Harness
module Fractional = Fractional.Relax
module Fleet_planner = Planner.Fleet
module Predictor = Forecast.Predictor
module Predictive = Forecast.Predictive
module Job_trace = Dcsim.Job_trace
module Sim_dc = Dcsim.Sim
module Controllers = Dcsim.Controllers
module Workload = Sim.Workload
module Trace = Sim.Trace
module Server_protocol = Server.Protocol
module Server_codec = Server.Codec
module Server_session = Server.Session
module Daemon = Server.Daemon
module Server_audit = Server.Audit
module Server_monitor = Server.Monitor
module Server_client = Server.Client
(** Synchronous wire-protocol client (connect/hello/request over a Unix
    or loopback TCP socket). *)

module Server_spawn = Server.Spawn
(** Spawn and tear down real daemon processes (leak-proof via an
    [at_exit] SIGKILL registry; see [docs/scenarios.md]). *)

module Store_log = Store.Log
module Store_cemented = Store.Cemented
module Store_replay = Store.Replay

module Scenario_def = Scenario.Def
(** Declarative scenario files — strict sexp codec plus
    capacity-fraction workload synthesis ([docs/scenarios.md]). *)

module Scenario_runner = Scenario.Runner
(** Execute a scenario end-to-end against a spawned daemon and verify
    against the sequential oracle and the offline optimum. *)

module Report = Experiments.Report
module Arena = Experiments.Arena
module Experiment_registry = Experiments.Registry
module Scenarios = Sim.Scenarios
module Pool = Util.Pool
(** Persistent domain pool: spawn workers once, reuse them for every
    job.  The daemon ([serve --domains]) fans each round's session steps
    out across one; every solver runs on the calling domain. *)

module Prng = Util.Prng

module Snapshot = Util.Snapshot
(** Versioned, checksummed checkpoint files (crash-safe save/load; see
    [docs/robustness.md]). *)

module Faultinj = Util.Faultinj
(** Deterministic fault injection at named sites ([pool.job],
    [dp.layer_fill], [streaming.feed], [snapshot.write]). *)

module Stats = Util.Stats
module Table = Util.Table
module Csv = Util.Csv
module Sexp = Util.Sexp
module Ascii_plot = Util.Ascii_plot
module Svg = Util.Svg

module Obs = Obs
(** Telemetry: spans, counters, sinks, trace/metrics exporters and run
    manifests ({!Obs.Span}, {!Obs.Counter}, {!Obs.Sink},
    {!Obs.Trace_export}, {!Obs.Metrics_export}, {!Obs.Run_manifest}). *)

val solve_offline : Instance.t -> Schedule.t * float
(** Exact optimal schedule and cost (Section 4.1). *)

val solve_approx : eps:float -> Instance.t -> Schedule.t * float
(** [(1 + eps)]-approximate schedule and cost (Sections 4.2/4.3). *)

val run_online : ?eps:float -> Instance.t -> Schedule.t * float
(** The paper's online algorithm matched to the instance: algorithm A
    for time-independent costs, algorithm C (default [eps = 0.5]) for
    time-dependent ones.  Returns the schedule and its cost. *)

val competitive_ratio : Instance.t -> Schedule.t -> float
(** Cost of the schedule divided by the exact optimum. *)

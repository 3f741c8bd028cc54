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
module Server_spawn = Server.Spawn
module Store_log = Store.Log
module Store_cemented = Store.Cemented
module Store_replay = Store.Replay
module Scenario_def = Scenario.Def
module Scenario_runner = Scenario.Runner
module Report = Experiments.Report
module Arena = Experiments.Arena
module Experiment_registry = Experiments.Registry
module Scenarios = Sim.Scenarios
module Pool = Util.Pool
module Prng = Util.Prng
module Snapshot = Util.Snapshot
module Faultinj = Util.Faultinj
module Stats = Util.Stats
module Table = Util.Table
module Csv = Util.Csv
module Sexp = Util.Sexp
module Ascii_plot = Util.Ascii_plot
module Svg = Util.Svg
module Obs = Obs

let solve_offline inst =
  let { Offline.Dp.schedule; cost } = Offline.Dp.solve_optimal inst in
  (schedule, cost)

let solve_approx ~eps inst =
  let { Offline.Dp.schedule; cost } = Offline.Dp.solve_approx ~eps inst in
  (schedule, cost)

let run_online ?(eps = 0.5) inst =
  let schedule =
    if inst.Model.Instance.time_independent then
      (Online.Alg_a.run inst).Online.Alg_a.schedule
    else (Online.Alg_c.run ~eps inst).Online.Alg_c.schedule
  in
  (schedule, Model.Cost.schedule inst schedule)

let competitive_ratio inst schedule =
  Online.Harness.ratio
    ~cost:(Model.Cost.schedule inst schedule)
    ~opt:(Online.Harness.opt_cost inst)

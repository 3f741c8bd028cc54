(** Competitive-ratio arena: race every registered online solver —
    the paper's algorithms A/B/C, the randomised power-down variant,
    the sister-paper solvers (break-even [det2d], pooled [homog]) and
    the practical baselines — across the scenario library plus an
    adversarial ski-rental trace, all against the exact offline
    optimum.

    Each race measures the solver's competitive ratio through
    {!Online.Harness.ratio} and checks it against the solver's asserted
    theoretical bound ({!Online.Harness.competitive_bound}); a solver
    that is inapplicable to a scenario (algorithm A on time-dependent
    costs, [det2d] on load-dependent costs, [homog] on non-coinciding
    types) simply sits that race out.  The report ranks solvers by mean
    measured ratio and fails if any ratio falls outside [[1, bound]]. *)

type entry = {
  solver : string;
  scenario : string;
  cost : float;
  opt : float;        (** exact offline optimum *)
  ratio : float;      (** {!Online.Harness.ratio}[ ~cost ~opt] *)
  bound : float option;
      (** the asserted guarantee; [None] for unbounded baselines *)
  feasible : bool;
  within_bound : bool;  (** vacuously true for baselines *)
}

type standing = {
  name : string;
  races : int;         (** scenarios entered *)
  mean_ratio : float;
  worst_ratio : float;
  wins : int;          (** races with the (tied-)cheapest schedule *)
  bounded : bool;      (** every entered race respected the bound *)
}

val scenarios : unit -> (string * Model.Instance.t) list
(** The arena line-up: named scenarios from {!Sim.Scenarios} (including
    the spot-market and a coinciding-types pool built for the new
    solvers) plus the adaptive ski-rental adversary instance. *)

val race : (string * Model.Instance.t) list -> entry list
(** Run every applicable solver on every given scenario.  Deterministic:
    the randomised solver uses a fixed per-race seed, so the same
    scenario list always yields the same entries. *)

val standings : entry list -> standing list
(** Aggregate and rank by mean measured ratio (ascending). *)

val run : unit -> Report.t
(** The full arena over {!scenarios}, with a ranked standings table, the
    per-race table, and [arena.json] / [arena.csv] artifacts — the
    {!Registry} entry point. *)

(** Experiment harness: run algorithms on an instance and measure their
    empirical competitive ratios against the exact offline optimum. *)

type evaluation = {
  name : string;
  cost : float;      (** total schedule cost [C(X)] *)
  ratio : float;     (** [cost / OPT] *)
  feasible : bool;   (** paper-sense feasibility of the schedule *)
}

val opt_cost : Model.Instance.t -> float
(** Exact optimum via {!Offline.Dp.solve_optimal}. *)

val ratio : cost:float -> opt:float -> float
(** The canonical nan-free competitive ratio [cost / opt], defined on
    all-idle traces where [opt = 0]: an algorithm matching the zero
    optimum is [1.]-competitive, one paying anything is [infinity].
    Every ratio the repo reports should route through this. *)

val evaluate :
  Model.Instance.t -> opt:float -> (string * Model.Schedule.t) list -> evaluation list
(** Cost, ratio and feasibility of each named schedule. *)

val run_suite :
  ?eps:float ->
  ?window:int ->
  ?include_baselines:bool ->
  Model.Instance.t ->
  (string * Model.Schedule.t) list
(** The standard line-up: OPT, algorithm A (time-independent instances)
    or algorithms B and C (default [eps = 0.5]), and — when
    [include_baselines] (default true) — always-on, follow-the-demand,
    receding horizon (default [window = 3]) and, for [d = 1], LCP. *)

val competitive_bound :
  Model.Instance.t ->
  algorithm:[ `A | `B | `C of float | `Rand | `Det2d | `Homog ] ->
  float
(** The asserted guarantee for the instance: [2d + 1] for A (Theorem 8;
    [2d] when costs are also load-independent, Corollary 9),
    [2d + 1 + c(I)] for B (Theorem 13), [2d + 1 + eps] for C
    (Theorem 15), [2d + 1 + c(I)] per seed for the randomised variant
    (its thresholds never exceed B's), [2d] for the break-even det2d
    rule on time-independent instances ([2d + c(I)] with time-varying
    prices), and the [d]-free [2] / [2 + c] / [3] / [3 + c] family for
    the pooled homogeneous rule (arXiv:1807.05112). *)

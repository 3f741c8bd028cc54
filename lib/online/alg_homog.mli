(** The pooled homogeneous algorithm, after *Optimal Algorithms for
    Right-Sizing Data Centers* (arXiv:1807.05112): when [d = 1] or all
    server types coincide (equal [beta], [cap] and cost functions), the
    instance is effectively one type of [sum_j m_j] machines, and the
    guarantee should not pay the [2d] of the heterogeneous analysis.

    The summed active count follows a single break-even idle budget —
    power up to the pooled optimal-prefix total, power a batch down once
    the idle cost accumulated since its power-up reaches the shared
    [beta] — and the per-type split is kept canonical (type 0 filled
    first; coinciding caps make every split cost-identical).  The
    asserted bounds are the [d]-free members of the family: [2] for
    load-independent costs (the sister paper's optimal deterministic
    ratio), [3 = 2·1 + 1] for time-independent convex costs, and
    [3 + c(I)] with the pooled [c(I) = max_t l_t / beta] for
    time-dependent ones — see {!Harness.competitive_bound}. *)

type result = {
  schedule : Model.Schedule.t;
  prefix_last : Model.Config.t array;  (** optimal prefix configs [x^t_t] *)
  prefix_costs : float array;          (** optimal prefix costs [C(X^t)] *)
  power_ups : (int * int * int) list;  (** chronological [(t, j, count)] *)
  power_downs : (int * int * int) list;
}

val applicable : Model.Instance.t -> bool
(** Whether the instance is in the algorithm's domain: [beta > 0],
    static fleet sizes, and all types coinciding ([beta], [cap], cost
    functions — the latter compared structurally per slot). *)

val coinciding_types : Model.Instance.t -> bool
(** The [beta]/[cap] part of the check alone (cost functions are also
    compared per slot by {!applicable} and at each {!Stepper.step}). *)

val c_of_instance : Model.Instance.t -> float
(** The pooled analogue of Theorem 13's constant:
    [max_t l_{t,0} / beta_0] (one effective type). *)

val run : ?grid:Offline.Grid.t -> Model.Instance.t -> result
(** Full batch run (reads slots strictly in order); raises
    [Invalid_argument] if {!applicable} is false. *)

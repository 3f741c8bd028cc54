(** The deterministic break-even algorithm of the sister paper
    *Algorithms for Energy Conservation in Heterogeneous Data Centers*
    (arXiv:2107.14672): power up to the optimal-prefix configuration,
    power a batch down as soon as the idle cost accumulated since its
    power-up {e reaches} its [beta_j] (algorithm B waits until the
    budget is strictly exceeded).

    Applicable to load-independent operating costs [f_{t,j}(z) = l_{t,j}]
    — possibly time-dependent prices.  On time-independent instances the
    break-even rule reproduces algorithm A's [ceil(beta_j / l_j)] timers
    exactly, so the measured competitive ratio meets the optimal [2d]
    bound there (Corollary 9 territory); with time-varying prices the
    overshoot of the last accumulated slot adds at most
    [c(I) = sum_j max_t l_{t,j} / beta_j], mirroring Theorem 13's
    constant — see {!Harness.competitive_bound}. *)

type result = {
  schedule : Model.Schedule.t;
  prefix_last : Model.Config.t array;  (** optimal prefix configs [x^t_t] *)
  prefix_costs : float array;          (** optimal prefix costs [C(X^t)] *)
  power_ups : (int * int * int) list;  (** chronological [(t, j, count)] *)
  power_downs : (int * int * int) list;
}

val applicable : Model.Instance.t -> bool
(** Whether the instance is in the algorithm's domain: every cost
    function constant (load-independent) and every [beta_j > 0]. *)

val run : ?grid:Offline.Grid.t -> Model.Instance.t -> result
(** Full batch run over the instance's horizon (reads slots strictly in
    order; raises [Invalid_argument] if {!applicable} is false). *)

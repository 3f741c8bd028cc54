(** Online algorithm A (paper, Section 2): time-independent operating
    cost functions, deterministic, [(2d+1)]-competitive — and
    [2d]-competitive when the costs are additionally load-independent
    (Corollary 9).

    Per slot, A computes the optimal schedule for the revealed prefix and
    powers servers up until [x^A_{t,j} >= x^_{t,j}]; every powered-up
    server of type [j] runs for exactly [t_j = ceil(beta_j / f_j(0))]
    slots and is then powered down, used or not (the ski-rental rule).
    When [f_j(0) = 0] idling is free and servers are never powered
    down. *)

type result = {
  schedule : Model.Schedule.t;            (** [X^A] *)
  prefix_last : Model.Config.t array;     (** [x^t_t] per slot (Figure 1's upper plot) *)
  prefix_costs : float array;             (** [C(X^t)] per slot *)
  runtimes : int option array;            (** [t_j]; [None] means "never power down" *)
  power_ups : (int * int * int) list;
      (** power-up events [(time, typ, count)] in chronological order —
          the block starts [s_{j,i}] of the analysis (Figure 2) *)
}

val run : ?grid:Offline.Grid.t -> Model.Instance.t -> result
(** Raises [Invalid_argument] when the instance is not time-independent
    (use algorithm B or C then) or admits no feasible schedule.

    [grid] restricts the internal optimal-prefix engine to a reduced
    state grid (see {!Prefix_opt.create}) — a scalable mode for large
    fleets whose guarantee degrades gracefully with the grid's
    approximation factor (measured by the ablation experiment). *)

(** Online algorithm B (paper, Section 3.1): time-dependent operating
    cost functions, [(2d + 1 + c(I))]-competitive with
    [c(I) = sum_j max_t l_{t,j} / beta_j].

    The power-up rule is the same as algorithm A's; the power-down rule
    accumulates the *actual* idle costs: a server of type [j] powered up
    at slot [u] runs for [t_{u,j} = max {t | sum_{v=u+1}^{u+t} l_{v,j}
    <= beta_j}] further slots, i.e. it is shut down at the first slot [t]
    with [sum_{v=u+1}^{t} l_{v,j} > beta_j] (the set [W_t]).  A slot's
    own idle cost never influences its runtime, and the runtime is only
    known at shutdown time — B remains a valid online algorithm. *)

type result = {
  schedule : Model.Schedule.t;         (** [X^B] *)
  prefix_last : Model.Config.t array;  (** [x^t_t] per slot *)
  prefix_costs : float array;          (** [C(X^t)] per slot *)
  power_ups : (int * int * int) list;  (** [(time, typ, count)] events *)
  power_downs : (int * int * int) list;
      (** [(time, typ, count)]: servers leaving at the start of [time] *)
}

val run : ?grid:Offline.Grid.t -> Model.Instance.t -> result
(** Requires every [beta_j > 0] (otherwise [c(I)] is unbounded and the
    paper's guarantee is void); raises [Invalid_argument] otherwise or
    when no feasible schedule exists.  [grid] as in {!Alg_a.run}. *)

val c_of_instance : Model.Instance.t -> float
(** The constant [c(I) = sum_j max_t l_{t,j} / beta_j] of Theorem 13. *)

(** Incremental optimal-prefix engine.

    Both online algorithms need, after every revealed slot [t], the last
    configuration [x^_t] of an optimal schedule for the shortened
    instance [I^t] (paper, Sections 2 and 3: "Calculate X^t").  Running
    the offline solver from scratch per slot would cost [O(T^2 |M| d)];
    this engine keeps the forward DP layer alive between slots, so the
    whole online run costs the same as one offline solve.

    The engine only ever reads the instance at slots it has been stepped
    through, so it is a valid online computation.

    The layer it keeps is {e canonical}: +infinity at every state that
    a cheaper state below it reaches by power-ups alone (beyond a 1e-9
    relative allowance), the cheapest prefix cost everywhere else.  Such
    a state is on no optimal path and never an optimal last
    configuration, so every ramp, argmin and decision is bit-identical to
    keeping its cost; and the layer does not depend on which states'
    operating costs a step skipped.  A step stops each grid line's fill
    once a weak-duality bound proves the line's remaining states
    dominated, so it solves the dispatch problem (eq. (1)) only where a
    prefix can still use it.  A step runs on the calling domain: a
    pooled fill of every state was slower on two domains than this
    pruned fill on one, so the engine takes no pool. *)

type t

type step = {
  last : Model.Config.t;
      (** last configuration of an optimal prefix schedule — the
          lexicographically smallest among optimal choices *)
  last_hi : Model.Config.t;
      (** the lexicographically largest optimal choice (used by the LCP
          baseline's upper bound) *)
  prefix_cost : float;  (** [C(X^t)], the optimal prefix cost *)
}

val create : ?grid:Offline.Grid.t -> Model.Instance.t -> t
(** Engine over the given state grid (default: the instance's dense
    declared-count grid).  Passing a reduced power-of-gamma grid
    ({!Offline.Grid.power}) makes each step cost [O(prod log m_j)]
    instead of [O(prod m_j)]; the returned prefix optima are then
    optimal *within the grid* — a scalability/accuracy trade-off
    analysed by the ablation experiment rather than by the paper. *)

val step : t -> step
(** Reveal and process the next slot.  Raises [Invalid_argument] past the
    horizon or when the prefix has no feasible schedule. *)

val time : t -> int
(** Number of slots processed so far. *)

val rebind : t -> Model.Instance.t -> unit
(** Swap in a new instance whose prefix agrees with the slots already
    processed — the streaming layer's buffer growth: same types and
    fleet sizes, a horizon at least {!time}.  The DP layer carries over
    untouched, so subsequent steps are bit-identical to an engine built
    over the new instance from scratch.  Raises [Invalid_argument] on a
    dimension/fleet mismatch or a horizon shorter than {!time}. *)

val save : t -> Util.Sexp.t
(** The engine's resumable state (clock and live DP layer, which is
    canonical: +infinity at dominated states), floats encoded
    bit-exactly ({!Util.Snapshot.float_atom}). *)

val restore : t -> Util.Sexp.t -> (unit, string) result
(** Load a {!save}d state into an engine created over the same instance
    and grid; stepping afterwards is decision-for-decision identical to
    the uninterrupted engine.  Any layer is accepted, canonical or not
    (a checkpoint written before layers were canonical keeps finite
    costs at dominated states): no ramp value or argmin depends on a
    dominated state's cost, so both resume to the same bits.  Validates
    the payload shape, the clock against the horizon and the layer
    length against the grid. *)

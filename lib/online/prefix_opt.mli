(** Incremental optimal-prefix engine.

    Both online algorithms need, after every revealed slot [t], the last
    configuration [x^_t] of an optimal schedule for the shortened
    instance [I^t] (paper, Sections 2 and 3: "Calculate X^t").  Running
    the offline solver from scratch per slot would cost [O(T^2 |M| d)];
    this engine keeps the forward DP layer alive between slots, so the
    whole online run costs the same as one offline solve.

    The engine only ever reads the instance at slots it has been stepped
    through, so it is a valid online computation.

    A step is the offline DP's forward step ({!Offline.Forward}): the
    ramp of the kept layer, then the sweep that adds [g_t]
    and leaves the layer canonical (+infinity at dominated states), then
    the argmin.  It runs on the calling domain and takes no pool. *)

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
    the uninterrupted engine.  A layer saved before layers were
    canonical (finite costs at dominated states) resumes to the same
    bits.  Validates the payload shape, the clock against the horizon
    and the layer length against the grid. *)

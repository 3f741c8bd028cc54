(** Cost evaluation: the operating cost [g_t(x)] of equation (1), the
    switching cost, and the total schedule cost of equation (2).

    [g_t(x)] minimises the job split over the capped simplex; this module
    builds the dispatch pieces [h_j(z) = x_j f_{t,j}(lambda_t z / x_j)]
    and delegates to {!Convex.Dispatch}, with fast paths for zero load,
    load-independent costs (the special case of [5]), and a single server
    type ([d = 1], the homogeneous setting of [23, 24, 3, 4], where the
    inner minimum degenerates to [x f(lambda_t / x)] by Lemma 2). *)

val operating : Instance.t -> time:int -> Config.t -> float
(** [g_t(x)]; [infinity] when the configuration cannot absorb the slot's
    load ([sum_j x_j zmax_j < lambda_t], or positive load with no active
    server). *)

val operating_split : Instance.t -> time:int -> Config.t -> (float array * float) option
(** The minimising job split [(z_{t,1}, ..., z_{t,d})] together with
    [g_t(x)]; [None] when infeasible.  Needed by the analysis helpers
    ([L_{t,j}]) and by tests. *)

val operating_by_type :
  Instance.t -> time:int -> volume:float -> Config.t -> float array option
(** Attribute the operating cost of serving [volume] to the types:
    [x_j * f_{t,j}(volume * z_j / x_j)] under the minimising split
    ([None] when infeasible).  Sums to {!operating_volume}. *)

val operating_volume : Instance.t -> time:int -> volume:float -> Config.t -> float
(** Like {!operating} but for an arbitrary job volume instead of the
    slot's own [lambda_t] — the discrete-event simulator serves backlogs
    and partially dropped volumes with it. *)

val load_dependent : Instance.t -> time:int -> Config.t -> typ:int -> float
(** The load-dependent part [L_{t,j}(X) = x_j (f_{t,j}(lambda z_j / x_j)
    - f_{t,j}(0))] of equation (3); [0] when [x_j = 0], [infinity] when
    the configuration is infeasible. *)

val switching : Instance.t -> from_:Config.t -> to_:Config.t -> float
(** Power-up cost between consecutive configurations. *)

val schedule : Instance.t -> Schedule.t -> float
(** Total cost [C(X)] of equation (2), including the initial power-up
    from the all-inactive state and — when power-down costs are present —
    the power-downs, including the final teardown to the all-inactive
    state [x_{T+1} = 0].  [infinity] if any slot is infeasible. *)

val schedule_operating : Instance.t -> Schedule.t -> float
(** The operating-cost part [C_op(X)]. *)

val schedule_switching : Instance.t -> Schedule.t -> float
(** The switching-cost part [C_sw(X)]. *)

type cache
(** Memo for [g_t(x)].  Its users are [Offline.Brute_force], whose
    search re-reads each (slot, configuration) value many times, the
    [Online.Baselines], [Offline.Graph_paper] and the memo-backed
    [Offline.Dp.fill_layer].  The DP engines ([Offline.Dp.solve] and
    [Online.Prefix_opt], through [Offline.Forward]) read each layer's
    values at most once, so they drive a {!line} cursor over one reused
    row instead, and stop a line once the rest of it is dominated.

    The memo is a set of {b flat per-slot rank tables} ({!layer_table}
    / {!operating_rank}): when the caller enumerates a state grid it
    already holds each state's flat index, which addresses a plain
    [float array] directly — no key allocation, no hashing, no locks.
    [nan] marks an empty slot; pool workers touch disjoint ranks
    during a fill, and racing duplicate writes of the same value are
    benign. *)

val make_cache : Instance.t -> cache

val cache_instance : cache -> Instance.t
(** The instance the memo was made over. *)

val layer_table : cache -> time:int -> int -> float array
(** [layer_table cache ~time n] is slot [time]'s rank table, grown to
    hold [n] states (fresh slots are [nan] = not yet computed).  A size
    change discards previous entries — the ranks belong to a different
    grid.  Call from a single domain (before any parallel fan-out); the
    returned array may then be read and filled concurrently at disjoint
    ranks. *)

type line_ctx
(** Per-layer invariants of a line fill: the slot's load, each type's
    cost function, capacity, idle cost and closed-form constants, and
    the swept axis's dispatch pieces and their solver stats per value
    index.  Build one with {!line_ctx} per (slot, grid) layer fill and
    pass it to every line of that layer — it is immutable and safe to
    share across pool domains.  Purely an amortisation: the cached
    values equal what a cell would re-derive. *)

val line_ctx : Instance.t -> time:int -> values:int array -> line_ctx
(** The shared per-layer context for lines sweeping the last axis
    through [values] at slot [time]. *)

type line
(** A line cursor: one grid line's fill, driven cell by cell.  Lines
    of a slot-[t] operating-cost table are the rank ranges
    [rank0 .. rank0 + |values| - 1] whose configurations share the
    prefix [x.(0 .. d-2)] and take the swept (last) axis's value from
    [values] (ascending, so capacity grows along the line and the
    dispatch solves share one warm-started multiplier sweep,
    {!Convex.Dispatch.sweep_solve}).  Each domain owns one cursor:
    finish a line before starting the next on the same domain. *)

val line_start :
  ctx:line_ctx -> table:float array -> rank0:int -> x:Config.t -> values:int array -> line
(** Aim the calling domain's cursor at a line of [table]: [x] is read
    for its prefix (and copied; [x.(d-1)] is ignored), [ctx] is the
    layer's {!line_ctx} for the same [values].  Builds the line's
    prefix pieces once and clears the warm bracket. *)

val line_cell : line -> int -> unit
(** [line_cell l i] computes [g_t] of the line's cell [i] into
    [table.(rank0 + i)].  Cells must be computed in ascending [i]; any
    prefix of a line gets exactly the values (bits and warm chain) the
    whole line would, so a caller may stop after any cell.  Zero-load,
    load-independent, infeasible and [d = 1] cells match {!operating}
    bit for bit.  A dispatch cell allocates nothing, and its value is
    the cost of a feasible split: the solver stops within its tolerance
    of the optimal multiplier, and that split can cost more than the
    optimum (up to 0.6% has been seen with power exponents of 1.1-1.4),
    but never less, beyond rounding.  So a solved [g_t] is never below
    a dual bound ({!line_bound}, {!line_refit}), and a proof from such a
    bound never prunes a state that the solved value would keep. *)

val line_finish : line -> unit
(** Add the line's work to the counters ([cost.rank_misses], one per
    computed cell, and the dispatch counters). *)

type bound = { mutable icept : float; mutable slope : float; mutable mu : float }
(** A lower bound on [g_t] along a line: [g_t(x) >= icept + slope * v]
    at every cell whose swept count is [v].  It is the line's relaxed
    dual at the multiplier [mu >= 0], per unit of load:
    [icept = lambda_t mu + sum_{j<d-1} x_j phi_j(mu)] and
    [slope = phi_{d-1}(mu)], where
    [phi_j(mu) = min_{0 <= s <= cap_j} f_{t,j}(s) - mu s] (piece [j]'s
    box relaxed to the per-server capacity, which makes the bound
    linear in the swept count and loses nothing: [x_j s_j <= lambda_t]
    already holds on the simplex).  Weak duality makes every [mu >= 0]
    a valid bound, [D_v(mu) <= g_t], so neither the multiplier's source
    nor a refit's convergence matters for soundness; the bound is exact
    arithmetic up to float rounding, and callers compare it with a
    margin. *)

val line_bound : line -> bound -> bool
(** [line_bound l b] writes into [b] the bound at the multiplier [nu]
    of the line's latest analytic solve, [mu = nu / lambda_t] (which is
    within the solver's tolerance of that cell's optimum).  Before any
    solve, or at zero load, it uses [mu = 0]: the idle sum.  Returns
    [false], leaving [b] untouched, when an active type of the line (a
    prefix type with [x_j > 0], or the swept type) has no closed-form
    derivative inverse ({!Convex.Fn.has_inv_deriv}). *)

val line_refit : line -> bound -> v:int -> bool
(** [line_refit l b ~v] moves [b] towards the best bound for the cell
    with swept count [v]: up to three safeguarded Newton steps on that
    cell's dual [D_v(mu)], which is concave, from [b.mu] (any [mu >= 0];
    it need not come from {!line_bound}).  [D_v'(mu) = lambda_t -
    sum_j x_j s_j(mu)], the gap between the load and the responses'
    volume, and its slope come in closed form from the power and
    quadratic kernels, with one [**] per power type per step.  Each
    step keeps a sign bracket on [D_v'], which starts at [\[0, the
    largest saturation multiplier f_{t,j}'(cap_j) of an active type\]],
    and bisects it when the Newton point leaves it or every response
    sits at 0 or at its cap.  The steps stop early once the responses
    carry the load to 1e-9 relative.  [b] ends at the last multiplier
    reached, a valid bound like any other.  Returns [false], leaving
    [b] untouched, at zero load, when the cell's capacity does not
    cover the load, or when an active type's kernel is
    {!Convex.Fn.Generic_kernel}.  Allocates nothing. *)

val fill_line :
  ctx:line_ctx -> table:float array -> rank0:int -> x:Config.t -> values:int array -> unit
(** [fill_line ~ctx ~table ~rank0 ~x ~values] computes the [nan] (not
    yet computed) cells of one line of a slot-[time] operating-cost
    table [table] — a memo rank table from {!layer_table}, or a
    caller's own row reset to [nan] — in order, through the calling
    domain's {!line} cursor.  Lines are disjoint rank ranges, so
    concurrent calls on different lines (from different domains) are
    safe. *)

val operating_rank : cache -> time:int -> rank:int -> Config.t -> float
(** Memoised {!operating} through slot [time]'s rank table: returns the
    cached value at [rank], or computes [operating ~time x] and stores
    it there.  [x] must be the configuration whose flat grid index is
    [rank], and {!layer_table} must have been sized past [rank] first.
    Lock-free; safe from several domains as long as a rank is only
    raced by writers storing the same configuration's value. *)

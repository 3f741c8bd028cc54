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
    values at most once, so they drive a {!line_ctx}'s line cursor
    over one reused row instead, and stop a line once the rest of it is
    dominated.

    The memo is a set of {b flat per-slot rank tables} ({!layer_table}
    / {!operating_rank}): when the caller enumerates a state grid it
    already holds each state's flat index, which addresses a plain
    [float array] directly — no key allocation, no hashing, no locks.
    [nan] marks an empty slot.  A miss solves its dispatch problem in
    the memo's own sweep ({!Convex.Dispatch.solve_with}), so a memo
    serves one caller at a time, and two memos share nothing. *)

val make_cache : Instance.t -> cache

val cache_instance : cache -> Instance.t
(** The instance the memo was made over. *)

val layer_table : cache -> time:int -> int -> float array
(** [layer_table cache ~time n] is slot [time]'s rank table, grown to
    hold [n] states (fresh slots are [nan] = not yet computed).  A size
    change discards previous entries — the ranks belong to a different
    grid. *)

type line_ctx
(** The line fills' context over one grid: the grid's axis values, and
    the invariants of the layer it is aimed at ({!line_layer}), which
    every line of that layer shares: the slot's load, each type's cost
    function, capacity, idle cost and closed-form constants, and per
    axis a table of dispatch pieces by value index with their solver
    caches ({!Convex.Dispatch.table}).  A piece is built the first time
    a line of the layer uses it, so a layer builds each (type, count)
    piece at most once, and cells a fill never computes build none.
    All storage is sized once, when the context is made (its cursor's
    sweep caches at the first line); aiming it at a layer overwrites it
    in place and allocates only the probe constants
    of each type's cost, and building a piece only that piece.  Purely
    an amortisation: the values equal what a cell would re-derive.
    The context is also its own line cursor ({!line_start}), so fills
    through different contexts share no state and may interleave, cell
    by cell, on any thread. *)

val line_ctx : axes:int array array -> line_ctx
(** A context, with its cursor, for the grid whose axis [j] takes the
    values [axes.(j)] (ascending; lines sweep the last axis).  The
    context keeps [axes] as they are, without a copy: the caller must
    not change them.  Aim it with {!line_layer} before the first line.
    Raises [Invalid_argument] when [axes] is empty. *)

val line_layer : line_ctx -> Instance.t -> time:int -> unit
(** Aim the context at slot [time] of the instance: its load and cost
    functions; every piece table starts empty.  Raises
    [Invalid_argument] when the instance's type count is not the
    grid's dimension. *)

val line_live : line_ctx -> pos:int array -> int
(** The index of the first cell of the line whose prefix takes value
    index [pos.(j)] on each axis [j < d-1] (as for {!line_start}) whose
    capacity covers the aimed layer's load within [1e-9] (0 at zero
    load), or the line length when none does.  Exactly {!line_cell}'s
    infeasibility test: capacity grows along a line, so the cells
    before it are the line's infeasible ones, [+infinity], and the
    cells from it on are not.  It leaves the context's current line
    alone. *)

val line_start : line_ctx -> table:float array -> rank0:int -> pos:int array -> unit
(** Aim the context's line cursor at a line of its grid, in the layer
    the context is aimed at: the line whose prefix takes value index
    [pos.(j)] on each axis [j < d-1], stored in [table] from [rank0]
    on.  The cursor reads [pos] here only.  Seeds the context's
    dispatch sweep with the line's prefix pieces from its tables and
    clears the warm bracket.

    A line is one grid line's fill, driven cell by cell
    ({!line_cell}).  Lines of a slot-[t] operating-cost table are the
    rank ranges [rank0 .. rank0 + |values| - 1] whose configurations
    share the prefix [x.(0 .. d-2)] and take the swept (last) axis's
    value from its [values] (ascending, so capacity grows along the
    line and the dispatch solves share one warm-started multiplier
    sweep, {!Convex.Dispatch.sweep_solve}).  A context fills one line
    at a time: a line ends when the context's next one starts, and the
    layer when {!line_flush} runs. *)

val line_cell : line_ctx -> int -> unit
(** [line_cell ctx i] computes [g_t] of the current line's cell [i] into
    [table.(rank0 + i)].  Cells must be computed in ascending [i]; any
    prefix of a line gets exactly the values (bits and warm chain) the
    whole line would, so a caller may stop after any cell, or start at
    any cell from {!line_live} on.  Zero-load, load-independent,
    infeasible and [d = 1] cells match {!operating} bit for bit.  A
    dispatch cell allocates nothing once its swept piece is built, and
    its value is the cost of a feasible split: the solver stops within
    its tolerance of the optimal multiplier, and that split can cost
    more than the optimum (up to 0.6% has been seen with power
    exponents of 1.1-1.4), but never less, beyond rounding.  So a
    solved [g_t] is never below a dual bound ({!line_bound},
    {!line_refit}), and a proof from such a bound never prunes a state
    that the solved value would keep. *)

val line_flush : line_ctx -> unit
(** End the context's layer fill: add the work its cursor accumulated
    over the layer's lines to the counters ([cost.rank_misses], one per
    computed cell, and the dispatch counters), and release the layer's
    built pieces, so that they can die young.  A layer fill calls it
    once, after its last line, and also when a line raises, so that no
    count carries over into the context's next fill. *)

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

val line_bound : line_ctx -> bound -> bool
(** [line_bound ctx b] writes into [b] the bound at the multiplier
    [nu] of the current line's latest analytic solve,
    [mu = nu / lambda_t] (which is within the solver's tolerance of
    that cell's optimum).  Before any
    solve, or at zero load, it uses [mu = 0]: the idle sum.  Returns
    [false], leaving [b] untouched, when an active type of the line (a
    prefix type with [x_j > 0], or the swept type) has no closed-form
    derivative inverse ({!Convex.Fn.has_inv_deriv}). *)

val line_refit : line_ctx -> bound -> v:int -> bool
(** [line_refit ctx b ~v] moves [b] towards the best bound for the
    current line's cell with swept count [v]: up to three safeguarded
    Newton steps on that cell's dual [D_v(mu)], which is concave, from
    [b.mu] (any [mu >= 0]; it need not come from {!line_bound}).
    [D_v'(mu) = lambda_t - sum_j x_j s_j(mu)], the gap between the load and the responses'
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

val fill_line : ctx:line_ctx -> table:float array -> rank0:int -> pos:int array -> unit
(** [fill_line ~ctx ~table ~rank0 ~pos] computes the [nan] (not yet
    computed) cells of one line ({!line_start}'s) of an operating-cost
    table [table] of the layer [ctx] is aimed at — a memo rank table from
    {!layer_table}, or a caller's own row reset to [nan] — in order,
    through the context's line cursor.  Call {!line_flush} after the
    layer's last line. *)

val operating_rank : cache -> time:int -> rank:int -> Config.t -> float
(** Memoised {!operating} through slot [time]'s rank table: returns the
    cached value at [rank], or computes [operating ~time x], bit for
    bit, and stores it there.  [x] must be the configuration whose
    flat grid index is [rank], and {!layer_table} must have been sized
    past [rank] first. *)

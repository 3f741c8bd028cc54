(** Separable convex minimisation over a capped simplex.

    This is the inner problem of the paper's equation (1): given convex
    increasing pieces [h_1, ..., h_d] (there, [h_j(z) = x_j f_{t,j}(lambda_t
    z / x_j)]) and per-piece caps [u_j] (there, the fraction of the volume
    type [j]'s active servers can absorb), find

    {[ min  sum_j h_j(z_j)   s.t.  sum_j z_j = total,  0 <= z_j <= u_j ]}

    The solver is KKT water-filling: a multiplier [nu] is driven so
    that the per-piece responses [z_j(nu) = sup {z | h_j'(z) <= nu}]
    (clamped to [\[0, u_j\]]) sum to [total]; a final interpolation step
    resolves derivative plateaus (e.g. affine pieces with equal slopes),
    along which cost is linear, so interpolation keeps optimality.
    When every active piece has a closed-form derivative inverse
    ({!Fn.has_inv_deriv} — all the built-in families except
    max-of-affine), the multiplier search is a safeguarded Newton
    iteration: the residual's slope is the closed-form
    [sum_j 1 / h_j''(z_j)] ({!Fn.curvature}), each step is confined to a
    bisection bracket maintained exactly as before, and pieces without
    curvature simply withhold the step so the iteration degenerates to
    bisection.  Otherwise the interior crossings fall back to nested
    [Scalar_min.bisect_monotone] searches, and up to three active pieces
    are solved by (nested) golden section on the convex 1-D restrictions.

    The {!sweep} API amortises the search along a monotone family of
    instances (a DP grid line): [h_j(z) = x_j f(lambda z / x_j)] has
    responses pointwise non-decreasing in the capacity [x_j], so the
    optimal multiplier is non-increasing along a line of non-decreasing
    capacities and each cell's final upper bracket warm-starts the next
    cell's Newton iteration — most cells converge in one or two probes.

    [greedy] is an independent discretised solver used to cross-check the
    water-filler in the test suite. *)

type piece = {
  fn : Fn.t;      (** the convex increasing cost [h_j] *)
  upper : float;  (** cap [u_j >= 0]; the piece is fixed to 0 when [u_j = 0] *)
}

type solution = {
  assignment : float array;  (** optimal [z_j], same length as the input *)
  objective : float;         (** [sum_j h_j(z_j)] *)
}

val solve : ?numeric:bool -> piece array -> total:float -> solution option
(** Water-filling solve.  Returns [None] when [sum_j u_j < total] (no
    feasible assignment).  [total] must be non-negative.  Accuracy: the
    assignment satisfies the simplex constraint to within [1e-9] and
    the objective is optimal to first order in that tolerance.
    [~numeric:true] disables the analytic-inverse fast path and
    forces the legacy golden-section / nested-bisection route — kept so
    the property tests and the benchmark suite can measure the analytic
    path against it; production callers should leave the default.  Each
    call makes its own scratch, so concurrent solves share nothing. *)

type sweep
(** Mutable scratch for a warm-started line sweep: carries the previous
    cell's multiplier bracket and cached endpoint derivatives between
    {!sweep_solve} calls, and the cells' work counts until
    {!sweep_finish}.  Its owner holds it (a line cursor of
    [Model.Cost] holds one, and so does a memo, for {!solve_with}), so
    sweeps over different records never share state, on any thread or
    domain; one record runs one line, or one solve, at a time. *)

val sweep : unit -> sweep
(** A fresh sweep, cold.  Its per-piece caches are sized by the first
    solve or seed that uses them. *)

val sweep_start : sweep -> unit
(** Clear the warm bracket: call once per grid line, before its first
    {!sweep_solve}.  The caches and the work counts stay. *)

val solve_with : sweep -> piece array -> total:float -> solution option
(** {!solve} in the caller's sweep instead of a fresh scratch: the same
    solution, bit for bit, and the same counts.  Each call starts cold
    (it clears the warm bracket), and a piece physically shared with
    the previous solve keeps its caches.  For a caller that solves many
    unrelated problems in turn, such as a memo's misses, which would
    otherwise make a scratch for each. *)

type table
(** Pieces with the per-piece invariants the solver caches (derivative
    and value at [0] and at the cap, the {!Fn.probe_kernel} constants of
    the Newton loop, whether the derivative inverts in closed form),
    kept unboxed by entry.  A layer fill builds each piece it uses once
    ({!table_set}) and seeds every line's sweep from the table
    ({!sweep_seed}) instead of re-deriving the caches per line or per
    cell. *)

val table : int -> table
(** [table n] has [n] entries, none built.  Its storage is allocated
    here, once; building an entry allocates only what the piece
    itself and its probe constants need. *)

val table_clear : table -> unit
(** Mark every entry unbuilt (a new layer's pieces differ), and let go
    of the pieces, so that they can die young. *)

val table_built : table -> int -> bool

val table_set : table -> int -> piece -> unit
(** [table_set t i p] makes [p] entry [i] and derives its caches,
    exactly as the solver would. *)

val sweep_seed : sweep -> piece array -> int -> table -> int -> unit
(** [sweep_seed sw pieces j t i] puts entry [i] of [t] into slot [j] of
    [pieces] and its caches into the sweep's slot [j], so the next
    {!sweep_solve} over [pieces] derives nothing for that slot; a later
    call keeps them for as long as slot [j] holds the same piece.  The
    one way to hand the solver precomputed caches.  Raises
    [Invalid_argument] when entry [i] is not built. *)

val sweep_solve : sweep -> piece array -> total:float -> float array -> int -> unit
(** [sweep_solve sw pieces ~total row i] stores in [row.(i)] the optimal
    objective (as {!solve}, but [infinity] where {!solve} returns
    [None]), reusing and updating the sweep's warm multiplier bracket.
    Writing into the caller's row keeps the objective unboxed: a cell
    solved along the analytic path allocates nothing.  Sound whenever
    successive calls present instances whose responses are pointwise
    non-decreasing (a grid line swept in order of non-decreasing
    capacity): the optimal multiplier is then non-increasing, so the
    carried upper bracket stays valid — including across skipped cells.
    Pieces physically shared with the previous call, or seeded by
    {!sweep_seed}, reuse their cached endpoint derivatives and values.
    Matches per-cell {!solve} to well within its [1e-9] tolerance;
    non-invertible pieces take {!solve}'s golden-section / numeric
    route, with {!solve}'s bits, and such a cell counts once in
    [dispatch.calls].  The cell's [dispatch.*]
    counts stay in [sw] until {!sweep_finish}. *)

val sweep_multiplier : sweep -> float
(** The multiplier the line's latest analytic solve ended on (the
    upper bracket it carries to the next cell), or [nan] before the
    line's first one.  Any multiplier [nu] bounds a cell from below by
    weak duality, [sum_j h_j(z_j) >= nu * total + sum_j min_{0 <= z <=
    u_j} (h_j(z) - nu z)], and this one is within the solver's
    tolerance of the latest cell's optimum. *)

val sweep_finish : sweep -> unit
(** Add the counts the sweep's cells accumulated to the
    [dispatch.calls], [dispatch.analytic_solves] and
    [dispatch.newton_evals] counters, and clear them.  {!sweep_start}
    keeps the counts, so a layer fill calls this once, after its last
    line: a counter bump per cell would cost a [Domain.self] C call and
    an atomic add. *)

val greedy : ?steps:int -> piece array -> total:float -> solution option
(** Marginal-cost greedy on a grid of [steps] increments (default 4096).
    Exact in the limit for convex pieces; used as an oracle in tests. *)

val feasible : piece array -> total:float -> bool
(** Whether [sum_j u_j >= total] (up to a small tolerance). *)

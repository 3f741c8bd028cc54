(** The forward step shared by the offline DP ({!Dp.solve}) and the
    online prefix engine ([Online.Prefix_opt]): one slot of Section
    4.1's shortest-path layers, which is also the online algorithms'
    "calculate X^t".

    A {!sweep} turns slot [t]'s ramped layer R (the previous layer's
    ramp, {!Transform}, taken without an [ops] row) into the
    {e canonical} arrival layer: [R + g_t], except +infinity at every
    state that a cheaper state below it reaches by power-ups alone
    (beyond a 1e-9 relative allowance).  Such a state is on no optimal
    path and never an optimal last configuration, so every ramp, argmin
    and reconstruction over canonical layers is bit-identical to one
    over full layers.  The sweep starts each grid line at its first
    state whose capacity covers the slot's load ({!Model.Cost.line_live}),
    writing +infinity below it without computing anything, and stops a
    line's fill once a weak-duality bound proves the rest of it
    dominated, so it solves the dispatch problem (eq. (1)) only where a
    prefix can still use it; each [g_t] it computes has {!Dp.fill_row}'s
    bits.  It runs through a {!Model.Cost.line_ctx} that the context
    keeps for its grid, with that context's own cursor and dispatch
    sweep, so a layer builds each dispatch piece it uses once and
    allocates nothing else per line, and two contexts' sweeps share no
    state, on any thread or domain.

    {b Proofs.}  After a dominated cell, a proof walks the rest of the
    line with the bound [g_t >= icept + slope * v] of
    {!Model.Cost.line_bound}: the line's relaxed dual at the multiplier
    [mu] of the latest solve.  A cell is proved when its R plus that
    bound exceeds its power-up candidate by twice the allowance.  The
    tangent loosens along the line, so where it fails at a cell q the
    proof refits [mu] to q ({!Model.Cost.line_refit}: a few safeguarded
    Newton steps on q's dual, closed-form for power and quadratic
    costs), re-checks q and carries the new bound on; it gives up at
    the first cell that still fails, or after 16 refits.  The proof is
    sound for any [mu >= 0]: weak duality puts the dual below the
    optimal [g_t], and a solved [g_t] is the cost of a feasible split,
    never below the optimum beyond rounding, so a proved state is one
    the solved value would also have pruned, and the planes are
    bit-identical to a full solve's.  A line with an active type whose
    kernel has no closed-form Newton step keeps the single-multiplier
    proof, and no proof restarts before the sweep reaches the cell
    where the last one failed.

    {b Counters.}  Every cell of a layer is either computed
    ([cost.rank_misses]), skipped by a completed proof
    ([forward.proved_cells]) or skipped below the load
    ([forward.skipped_cells]).  These, [forward.refits] and the dispatch
    counters are added once per sweep, also when a line raises. *)

type t
(** A sweep context over one grid: a scratch row of its size, each
    axis's power-up costs, and the line fills' context with its piece
    tables and cursor, all sized once when the context is made.  A
    context runs one sweep at a time.  The sweep steps
    through the lines' axis indices as it goes, so nothing is kept per
    line. *)

val create : Grid.t -> betas:float array -> t
(** [betas.(j)] is axis [j]'s per-unit power-up cost.  Raises
    [Invalid_argument] when its length is not the grid's dimension. *)

val grid : t -> Grid.t

val sweep : t -> Model.Instance.t -> time:int -> Plane.t -> off:int -> unit
(** [sweep e inst ~time p ~off] makes the ramped layer R in the segment
    [\[off, off + Grid.size (grid e))] of [p] slot [time]'s canonical
    layer, in place; [inst] supplies the slot's load and cost functions.
    Raises [Invalid_argument] when the segment is out of range.  It
    also records the layer's smallest arrival cost and the first and
    last ranks holding it ({!min_cost}, {!argmin}, {!argmin_last}). *)

val min_cost : t -> float
(** The last sweep's smallest arrival cost; +infinity when every state
    is infeasible. *)

val argmin : t -> int
(** The smallest rank holding {!min_cost} after the last sweep: rank
    order is lexicographic, so this is the lexicographically smallest
    cheapest state.  Meaningful only when {!min_cost} is finite. *)

val argmin_last : t -> int
(** The largest rank holding {!min_cost}, likewise. *)

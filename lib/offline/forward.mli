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
    over full layers.  The sweep stops a grid line's fill once a
    weak-duality bound proves the rest of it dominated, so it solves the
    dispatch problem (eq. (1)) only where a prefix can still use it;
    each [g_t] it computes has {!Dp.fill_row}'s bits.  It runs on the
    calling domain.

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
    where the last one failed.  The [forward.proved_cells] and
    [forward.refits] counters total the cells that completed proofs
    skipped and the refits, once per sweep. *)

type t
(** A sweep context over one grid, with a scratch row of its size. *)

val create : Grid.t -> betas:float array -> t
(** [betas.(j)] is axis [j]'s per-unit power-up cost.  Raises
    [Invalid_argument] when its length is not the grid's dimension. *)

val grid : t -> Grid.t

val sweep : t -> Model.Instance.t -> time:int -> Plane.t -> off:int -> unit
(** [sweep e inst ~time p ~off] makes the ramped layer R in the segment
    [\[off, off + Grid.size (grid e))] of [p] slot [time]'s canonical
    layer, in place; [inst] supplies the slot's load and cost functions.
    Raises [Invalid_argument] when the segment is out of range. *)

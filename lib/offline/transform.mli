(** Ramp inf-convolutions — the layer-to-layer step of the shortest-path
    dynamic programs.

    The paper's graph (Section 4.1) connects configurations with
    per-coordinate edges: one step up on axis [j] costs [beta_j] per unit,
    one step down is free.  Consequently the minimum over predecessors

    {[ D'(x) = min_y D(y) + sum_j beta_j (x_j - y_j)^+ ]}

    is a separable inf-convolution, computable exactly by one
    forward/backward scan per axis instead of materialising the graph.
    The mismatched-grid variant supports the approximation grids
    (Section 4.2, edge weight [beta_j (N_j(x_j) - x_j)] telescopes to the
    same ramp) and time-varying sizes (Section 4.3).

    Both transforms work on {!Plane.t} segments holding a flat
    state-cost array over a grid in flat-index order.  The scans assume
    strictly increasing axes; {!Grid.make} rejects any other axis, so
    every grid satisfies it.  {!ramp_grid_plane} runs a strided axis
    row by row over each block of lines, so its inner loops are
    contiguous and each row's climb is computed once; every element
    gets the per-line scan's arithmetic, so the bits are the same.  A
    block's upward climb starts at its first row with a finite cell
    (a stride-1 line's first finite cell): below it every climb is
    +infinity anyway, and a canonical layer ({!Forward}) is mostly
    +infinity.

    An optional [ops] row, indexed by the result grid's rank, is added
    elementwise during the final (contiguous, stride-1) axis pass;
    without one there is no add pass.  The DP engines ramp without a
    row and add the operating costs in {!Forward.sweep}; a caller may
    fuse its own [g_t] here instead ([inf + g] keeps infeasible states
    at [infinity]).

    The source and destination segments are bounds-checked against
    their planes, and a given [ops] against the grid, before the
    destination is written; a mismatch raises [Invalid_argument]. *)

val ramp_grid_plane :
  ?ops:float array ->
  grid:Grid.t ->
  betas:float array ->
  Plane.t ->
  off:int ->
  unit
(** In-place transform of the plane segment [\[off, off + Grid.size grid)]
    over [grid] ([betas.(j)] is the per-unit up cost of axis [j]), then
    the fused add of [ops], if given. *)

val ramp_across_plane :
  ?ops:float array ->
  src_grid:Grid.t ->
  dst_grid:Grid.t ->
  betas:float array ->
  src:Plane.t ->
  soff:int ->
  tmp:Plane.t * Plane.t ->
  Plane.t ->
  doff:int ->
  unit
(** Transform from the [src] segment at [soff] (over [src_grid]) into
    the [dst] segment at [doff] (over [dst_grid], same dimension), then
    the fused add of [ops], if given.  Axes are replaced one at a time through
    intermediate mixed shapes, which ping-pong through the two [tmp]
    scratch planes (each must hold the largest intermediate shape, else
    ["scratch plane too small"]; with [d = 1] the single pass goes
    straight from [src] to [dst]).  The source segment is left
    untouched, and may live in the same plane as [dst] as long as the
    segments are disjoint. *)

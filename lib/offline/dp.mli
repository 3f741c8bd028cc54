(** Offline shortest-path algorithms (paper, Section 4).

    [solve] runs the dynamic program over per-slot state grids: the
    optimal algorithm of Section 4.1 uses dense grids, the
    [(1+eps)]-approximation of Section 4.2 uses power-of-gamma grids, and
    Section 4.3's time-varying data-center sizes fall out of letting the
    grid differ per slot.  Layer transitions are ramp inf-convolutions
    ({!Transform}), so a solve costs [O(T * |grid| * d)] plus the
    operating-cost evaluations [g_t(x)], which {!Forward.sweep} (the
    online prefix engine's step too) solves only where a prefix can use
    them.  The backward reconstruction needs every layer; a
    {!Layer_store} keeps each line's finite run of them, so a solve's
    memory is the canonical layers' finite cells plus two dense planes
    of the largest grid, not [T * |grid|] floats, and the
    reconstruction reads only the stored layers' finite cells
    ({!Layer_store.finite}).  Slots with equal grids share one
    {!Forward} context, and the default grids are built once per
    distinct availability vector.  The [dp.cells] counter totals the
    filled layers' cells, [dp.stored_cells] the ones the store
    keeps. *)

type result = {
  schedule : Model.Schedule.t;  (** an optimal (w.r.t. the grids) schedule *)
  cost : float;           (** its total cost [C(X)] *)
}

type frontier = {
  next_time : int;  (** first layer still to fill *)
  layers : float array array;
      (** the arrival layers for slots [0 .. next_time - 1] — everything
          the forward pass has computed so far (reconstruction needs all
          of them, so a checkpoint keeps the whole prefix, not just the
          newest layer).  Layers are canonical ({!Forward}): +infinity at
          dominated states. *)
}
(** A checkpoint of an in-flight forward pass; see [?resume]/[?on_layer]
    on {!solve} and the sexp codec below. *)

val solve :
  ?grids:(int -> Grid.t) ->
  ?initial:Model.Config.t ->
  ?resume:frontier ->
  ?on_layer:(time:int -> (unit -> frontier) -> unit) ->
  Model.Instance.t ->
  result
(** Shortest path over the given per-slot grids (default: dense grids
    honouring the instance's per-slot availability).  [initial] is the
    configuration active before the first slot (default: all inactive) —
    lookahead baselines re-plan from their current state with it; the
    reported cost includes the power-up from [initial].  Raises
    [Invalid_argument] when the instance admits no feasible schedule.
    Argmin ties are broken towards the lexicographically smallest
    configuration, so the result is deterministic.

    The solve runs on the calling domain, one layer after another.

    Checkpoint/resume: [on_layer] is invoked after each filled layer
    with a thunk that materialises the current {!frontier} (it expands
    every stored layer into a fresh array — only call it when actually
    writing a checkpoint); [resume] skips the forward pass up to
    [next_time] by storing the saved layers.  The caller must resume
    with the same instance and grids the frontier was captured under
    (sizes are validated, semantics are the contract); the resumed
    solve is then bit-identical to an uninterrupted one.  A frontier written before layers were canonical
    (finite costs at dominated states) resumes to the same result.

    Fault site: [dp.layer_fill] ({!Util.Faultinj}) fires before each
    layer fill; an injected fault is absorbed by refilling the layer
    under {!Util.Faultinj.suppressed} (the fill only reads the previous
    layer, so the retry is exact) and counted in [dp.layer_retries]. *)

val fill_row : Model.Instance.t -> Grid.t -> time:int -> float array -> unit
(** [fill_row inst grid ~time row] overwrites [row] with the operating
    cost [g_time(x)] of every state of [grid], by flat rank.  [row]
    must hold exactly [Grid.size grid] entries; a caller reuses it from
    slot to slot.  The fill walks the grid line by line along the last
    (stride-1) axis through {!Model.Cost.fill_line}, so each line seeds
    its dispatch pieces from the layer's tables, built once per
    (type, count), and warm-starts every cell's multiplier search from
    its predecessor's bracket.  Each call makes its own fill context,
    and so its tables, sized for the grid.
    {!Forward.sweep} computes a stretch of each line through the same
    kernel, with the same bits. *)

val fill_layer : Model.Cost.cache -> Grid.t -> time:int -> float array
(** The memo-backed {!fill_row}: fills the not-yet-computed entries of
    the slot's flat rank table ({!Model.Cost.layer_table}) in the same
    line order and returns the table.  The values equal {!fill_row}'s
    bit for bit. *)

val solve_optimal : Model.Instance.t -> result
(** Section 4.1: exact optimum on dense grids. *)

val solve_approx : eps:float -> Model.Instance.t -> result
(** Section 4.2 (and 4.3 when the instance is size-varying): grids
    [M^gamma] with [gamma = 1 + eps/2], guaranteeing
    [cost <= (1 + eps) * OPT] (Theorem 16 with [2*gamma - 1 = 1 + eps]).
    Requires [eps > 0]. *)

val dense_grids : Model.Instance.t -> int -> Grid.t
(** The per-slot dense grid (availability-aware).  [dense_grids inst]
    builds one grid per distinct availability vector and returns it for
    every slot with that vector, so a static instance's slots share one
    grid ([grid.builds] counts the builds). *)

val approx_grids : gamma:float -> Model.Instance.t -> int -> Grid.t
(** The per-slot reduced grid [X_j M_{t,j}^gamma], one per distinct
    availability vector like {!dense_grids}. *)

val state_count : Model.Instance.t -> grids:(int -> Grid.t) -> int
(** Total number of graph states [sum_t |grid_t|] — the size measure in
    Theorems 21/22 (each state contributes two vertices). *)

val frontier_to_sexp : frontier -> Util.Sexp.t
(** Frontier payload with bit-exact float atoms, for wrapping in a
    {!Util.Snapshot} container (kind [dp-frontier]). *)

val frontier_of_sexp : Util.Sexp.t -> (frontier, string) Stdlib.result

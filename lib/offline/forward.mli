(** The forward step shared by the offline DP ({!Dp.solve}) and the
    online prefix engine ([Online.Prefix_opt]): one slot of Section
    4.1's shortest-path layers, which is also the online algorithms'
    "calculate X^t".

    A {!sweep} turns slot [t]'s ramped layer R (the previous layer's
    ramp, {!Transform}, taken with a zero [ops] row) into the
    {e canonical} arrival layer: [R + g_t], except +infinity at every
    state that a cheaper state below it reaches by power-ups alone
    (beyond a 1e-9 relative allowance).  Such a state is on no optimal
    path and never an optimal last configuration, so every ramp, argmin
    and reconstruction over canonical layers is bit-identical to one
    over full layers.  The sweep stops a grid line's fill once a
    weak-duality bound ({!Model.Cost.line_bound}) proves the rest of it
    dominated, so it solves the dispatch problem (eq. (1)) only where a
    prefix can still use it; each [g_t] it computes has
    {!Dp.fill_row}'s bits.  It runs on the calling domain. *)

type t
(** A sweep context over one grid, with a scratch row of its size. *)

val create : Grid.t -> betas:float array -> t
(** [betas.(j)] is axis [j]'s per-unit power-up cost.  Raises
    [Invalid_argument] when its length is not the grid's dimension. *)

val grid : t -> Grid.t

val zero_ops : t -> float array
(** The scratch row cleared to zeros: the [ops] row of the ramp that
    builds R into this context's grid.  The next {!sweep} overwrites
    it. *)

val sweep : t -> Model.Instance.t -> time:int -> Plane.t -> off:int -> unit
(** [sweep e inst ~time p ~off] makes the ramped layer R in the segment
    [\[off, off + Grid.size (grid e))] of [p] slot [time]'s canonical
    layer, in place; [inst] supplies the slot's load and cost functions.
    Raises [Invalid_argument] when the segment is out of range. *)

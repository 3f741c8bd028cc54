(** State grids for the shortest-path dynamic programs.

    The optimal algorithm (paper, Section 4.1) works on the full grid
    [M = X_j {0, ..., m_j}]; the [(1+eps)]-approximation (Section 4.2)
    restricts each axis to [M_j^gamma = {0, 1, |_gamma^k_|, |gamma^k|,
    ..., m_j}] so consecutive values differ by a factor at most [gamma].
    Time-varying sizes (Section 4.3) simply use a different grid per
    slot.  A grid is the per-axis sorted list of allowed counts plus
    mixed-radix indexing into a flat array of states. *)

type t

val make : int array array -> t
(** [make dims] with [dims.(j)] the sorted, duplicate-free allowed counts
    of axis [j]; every axis must contain [0].  Raises [Invalid_argument]
    otherwise. *)

val dense : int array -> t
(** [dense m] has axes [{0, ..., m_j}] — the full configuration set. *)

val power : gamma:float -> int array -> t
(** [power ~gamma m] builds [X_j M_j^gamma]; requires [gamma > 1]. *)

val equal : t -> t -> bool
(** Structural equality of the axis value lists. *)

val axis_values : t -> int -> int array
(** The sorted allowed counts of one axis (a copy). *)

val axis : t -> int -> int array
(** The grid's own array of {!axis_values}, for a pass that only reads
    it: no copy per call.  Never write to it. *)

val dim : t -> int
(** Number of axes ([d]). *)

val axis_length : t -> int -> int

val size : t -> int
(** Total number of states (product of axis lengths). *)

val next_line : t -> int array -> unit
(** [next_line g pos] steps [pos], the value indices on axes
    [0 .. d-2] of a line along the last axis, to the next line's in
    rank order: an odometer whose last digit is axis [d-2], which
    wraps to zeros after the last line.  From zeros, [k] steps give the
    line that starts at rank [k * axis_length g (d-1)]. *)

val config_at : t -> int -> Model.Config.t
(** Configuration of a flat state index (fresh array). *)

val config_into : t -> int -> Model.Config.t -> unit
(** [config_into g idx x] decodes flat index [idx] into the caller's
    buffer [x] (length [dim g]) — the allocation-free {!config_at}. *)

val index_of : t -> Model.Config.t -> int option
(** Flat index of a configuration, if each coordinate is on-grid. *)

val iter : t -> (int -> Model.Config.t -> unit) -> unit
(** Iterate over all states in flat-index order; the configuration array
    is reused between calls — copy it if retained. *)

val round_up : t -> int -> int -> int option
(** [round_up g j v]: smallest on-grid value of axis [j] that is [>= v]
    ([None] if [v] exceeds the axis maximum) — the paper's
    [min {x in M_j^gamma | x >= v}]. *)

val round_down : t -> int -> int -> int
(** Largest on-grid value of axis [j] that is [<= v]; [v] must be
    [>= 0] (axis values always contain [0]). *)

val max_value : t -> int -> int
(** Largest allowed count on an axis. *)

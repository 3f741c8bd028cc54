(** A run-length store of DP layers, the memory {!Dp.solve}'s backward
    reconstruction reads.

    A canonical layer ({!Forward}) is mostly +infinity, and within each
    line along the last (stride-1) axis its finite cells form one run.
    The store keeps, per line, the values from its first finite cell to
    its last; an interior +infinity stays inside the run, so every layer
    comes back bit for bit, canonical or not.  The values are packed
    unboxed in fixed-size chunks (appending never copies what is
    stored); each line's run start and length is one varint code, a
    byte for lines of up to 11 cells and two up to 127. *)

type t

val create : unit -> t
(** An empty store. *)

val append : t -> Plane.t -> size:int -> line:int -> int
(** [append s p ~size ~line] stores the layer held in the first [size]
    cells of [p], as lines of [line] cells, as the next layer; it
    returns the number of cells kept in runs.  Raises [Invalid_argument]
    unless [line >= 1] divides [size] and [p] holds at least [size]
    cells. *)

val finite : t -> int -> int array -> float array -> int
(** [finite s t cells values] is a view of layer [t] (counted from 0 in
    append order) through its runs: it writes the rank of each of the
    layer's finite cells, in ascending order, into [cells] and its value
    into [values], and returns their count.  No cell outside a run is
    visited, and no +infinity is written.  Raises [Invalid_argument]
    when there is no layer [t], or when either array is shorter than
    the layer. *)

val to_array : t -> int -> float array
(** Layer [t] as a fresh float array: its runs, +infinity elsewhere. *)

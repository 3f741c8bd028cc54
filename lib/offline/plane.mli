(** Unboxed [float64] planes for the DP layer engines.

    A plane is a flat [Bigarray.Array1] of doubles in C layout: the DP
    builds each layer in a reused dense plane and keeps the finished
    layers in a {!Layer_store}, the ramp transforms run strided passes
    over segments in place, and two scratch planes absorb the
    intermediate shapes of cross-grid transforms — no per-layer
    [Array.copy], no per-axis fresh array.  Bigarrays live outside the
    OCaml heap, so the passes never trigger minor-GC work.

    Conversion to and from ordinary [float array]s happens only at the
    boundaries (snapshot codecs, [on_layer] frontier capture), keeping
    the serialised formats bit-compatible with the legacy layout. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** An uninitialised plane of [n] doubles (callers fill each segment
    before reading it). *)

val length : t -> int

val fill_range : t -> off:int -> len:int -> float -> unit

val blit : src:t -> soff:int -> dst:t -> doff:int -> len:int -> unit

val of_array : float array -> t -> off:int -> unit
(** Copy a float array into the plane at [off]. *)

val to_array : t -> off:int -> len:int -> float array
(** Fresh float array copy of a segment. *)

(** A problem instance [I = (T, d, m, beta, F, Lambda)] (paper, Section 1).

    Time slots are 0-based in this code base: slot [t] here is the paper's
    slot [t + 1]; the horizon [T] is the number of slots.  Server types
    are 0-based as well.

    The operating-cost functions [f_{t,j}] are exposed as a closure so
    that both time-independent instances (Section 2) and time-dependent
    ones (Section 3) share one representation; [time_independent]
    records which case holds so algorithms can pick the matching
    guarantee.  Section 4.3's time-varying data-center sizes are modelled
    by the per-slot availability [avail]. *)

type t = private {
  types : Server_type.t array;             (** the [d] server types *)
  load : float array;                      (** [lambda_t], length [T] *)
  cost : time:int -> typ:int -> Convex.Fn.t; (** [f_{t,j}] *)
  avail : time:int -> typ:int -> int;      (** [m_{t,j}] (Section 4.3) *)
  time_independent : bool;                 (** [f_{t,j} = f_j] for all [t] *)
  size_varying : bool;                     (** [avail] differs from [m_j] *)
}

val make :
  ?avail:(time:int -> typ:int -> int) ->
  types:Server_type.t array ->
  load:float array ->
  cost:(time:int -> typ:int -> Convex.Fn.t) ->
  unit ->
  t
(** General (time-dependent) constructor.  Raises [Invalid_argument] when
    there are no types, a load is negative, or an availability exceeds the
    declared count or is negative (checked lazily per call site for the
    closure cases, eagerly for loads). *)

val make_static :
  ?avail:(time:int -> typ:int -> int) ->
  types:Server_type.t array ->
  load:float array ->
  fns:Convex.Fn.t array ->
  unit ->
  t
(** Time-independent constructor: [f_{t,j} = fns.(j)] for all [t];
    the result has [time_independent = true]. *)

val horizon : t -> int
(** [T], the number of slots. *)

val num_types : t -> int
(** [d]. *)

val with_loads : ?avail:bool -> t -> float array -> t
(** [with_loads inst loads] keeps [inst]'s types and cost functions
    over other loads.  The cost clock is clamped into [inst]'s horizon,
    so a slot past it reuses the final slot's functions.  Availability
    is the declared counts, or with [~avail:true] (default [false])
    [inst]'s own, clamped the same way.  [time_independent] carries
    over.  Raises [Invalid_argument] as {!make} does. *)

val prefix : t -> int -> t
(** [prefix inst t] is the shortened instance [I^t]: the first [t] slots
    ([1 <= t <= horizon]). *)

val has_down_costs : t -> bool
(** Whether any type carries a positive power-down cost. *)

val fold_switching : t -> t
(** The paper's folding: replace each type's costs by
    [beta := beta + switch_down, switch_down := 0].  Because schedules
    start and end all-inactive, every schedule has the same total cost
    under the folded instance as under the original (a tested identity),
    so solving the folded instance solves the original. *)

val window : t -> start:int -> len:int -> t
(** [window inst ~start ~len] is the sub-instance covering slots
    [start, start + len); slot [u] of the window is slot [start + u] of
    [inst].  Used by lookahead baselines. *)

val idle_cost : t -> time:int -> typ:int -> float
(** [l_{t,j} = f_{t,j}(0)]. *)

val max_count : t -> typ:int -> int
(** [m_j], the declared fleet size of the type. *)

val counts : t -> int array
(** All [m_j]. *)

val capacity_at : t -> time:int -> float
(** [sum_j m_{t,j} * zmax_j], the maximal processable volume at [time]. *)

val feasible_load : t -> bool
(** Whether every slot's load fits within that slot's capacity — a
    necessary and sufficient condition for a feasible schedule to exist. *)

val scale_slot : t -> time:int -> parts:int -> Convex.Fn.t array
(** The sub-slot cost functions [f~ = f_{t,j} / parts] used by algorithm
    C's refinement of slot [time] (Section 3.2). *)

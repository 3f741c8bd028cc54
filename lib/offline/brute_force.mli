(** Exhaustive reference solver for tiny instances.

    Enumerates every feasible schedule and returns the cheapest — used as
    an oracle by the property tests to validate the dynamic program and
    the approximation bound.  Exponential in [T], so construction is
    guarded by a work limit. *)

exception Too_large of int
(** Raised when the enumeration would exceed the work limit; the payload
    is the estimated number of schedules. *)

val solve : ?limit:int -> Model.Instance.t -> Dp.result
(** Cheapest schedule by enumeration (default limit: [2_000_000]
    schedules).  Raises [Invalid_argument] when no feasible schedule
    exists, [Too_large] past the limit.  Ties are broken towards the
    lexicographically smallest schedule so results are deterministic and
    comparable with {!Dp.solve}.  The search re-reads each (slot,
    state) operating cost through the rank-table memo
    ({!Model.Cost.operating_rank}). *)

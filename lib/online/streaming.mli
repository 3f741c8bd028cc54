(** Streaming deployment API.

    The batch runners take a complete {!Model.Instance.t} and merely
    promise not to peek ahead; a deployed controller receives loads one
    slot at a time with no horizon in hand.  A streaming session owns a
    load buffer that grows geometrically on demand, writes each arriving
    volume into it, and advances the same prefix engine and power-down
    state machine the batch algorithms use — so a streamed run is
    decision-for-decision identical to the batch run on the same loads
    (a tested identity), with no need to guess the horizon up front.

    Sessions are checkpointable: {!save} captures the complete resumable
    state (bit-exact floats) and {!restore} loads it into a freshly
    constructed session, which then continues decision-for-decision
    identically to an uninterrupted one — the crash/resume property
    exercised by [test/test_robustness.ml].

    Fault site: [streaming.feed] ({!Util.Faultinj}) fires before any
    state is touched, so an injected failure leaves the session intact
    and the same slot can simply be fed again.

    Telemetry: [streaming.buffer_grows] counts buffer regrowths. *)

type t

val alg_a :
  ?max_horizon:int ->
  types:Model.Server_type.t array ->
  fns:Convex.Fn.t array ->
  unit ->
  t
(** A streaming session running algorithm A (time-independent costs,
    one function per type).  [max_horizon] is an optional hard cap on
    the number of slots the session will absorb; by default the session
    is unbounded and the buffer grows as slots arrive.  A session runs
    on the domain that feeds it; a server spreads sessions, not one
    session's steps, across its domains.

    A session runs the fleet at its declared counts: the instance it
    builds has no per-slot availability, so a fleet whose size varies
    over time (Section 4.3) is out of reach of every session. *)

val alg_b :
  ?max_horizon:int ->
  types:Model.Server_type.t array ->
  cost:(time:int -> typ:int -> Convex.Fn.t) ->
  unit ->
  t
(** A streaming session running algorithm B (time-dependent costs; the
    [cost] closure is consulted as slots arrive). *)

val det2d :
  ?max_horizon:int ->
  types:Model.Server_type.t array ->
  cost:(time:int -> typ:int -> Convex.Fn.t) ->
  unit ->
  t
(** A streaming session running the break-even algorithm
    ({!Stepper.alg_det2d}): load-independent, possibly time-dependent
    costs — every function the [cost] closure yields must be constant
    ([feed] raises on a non-constant slot). *)

val homog :
  ?max_horizon:int ->
  types:Model.Server_type.t array ->
  fns:Convex.Fn.t array ->
  unit ->
  t
(** A streaming session running the pooled homogeneous algorithm
    ({!Stepper.alg_homog}): [d = 1] or coinciding server types. *)

type feed_error =
  | Bad_volume of float
      (** negative or non-finite volume *)
  | Over_capacity of { volume : float; capacity : float }
      (** the volume exceeds the fleet's total capacity — no feasible
          configuration exists *)
  | Horizon_exhausted of { fed : int; cap : int }
      (** the session's optional [max_horizon] hard cap is reached *)

val feed_error_to_string : feed_error -> string

val feed_result : t -> float -> (Model.Config.t, feed_error) result
(** Deliver the next slot's job volume and obtain the configuration to
    run during that slot.  On [Error] the session state is untouched —
    a long-running host (the serving daemon) can reject the slot and
    keep the session alive.  The [streaming.feed] fault site fires
    before any validation, so {!Util.Faultinj.Injected} may still
    escape; it, too, leaves the session intact. *)

val feed : t -> float -> Model.Config.t
(** {!feed_result}, raising [Invalid_argument] on any {!feed_error} —
    the original batch-experiment interface. *)

val fed : t -> int
(** Slots processed so far. *)

val config : t -> Model.Config.t
(** The currently active configuration (all-off before the first
    [feed]). *)

val loads : t -> float array
(** A copy of the volumes fed so far (length {!fed}) — what the shadow
    oracle replays through the offline solver. *)

val loads_from : t -> from_:int -> float array
(** A copy of the volumes for slots [from_, fed) only — O(slots copied),
    not O(history). *)

val decisions : ?until:int -> t -> from_:int -> Model.Schedule.t
(** The decisions for slots [from_, until) ([until] defaults to
    {!fed}), rebuilt from the stepper's power events, which {!save}
    persists ({!Stepper.decisions}): after {!restore} they are the
    restored run's, with no schedule kept or stored beside the session.
    A window costs a binary search per type plus its own slots, however
    old it is. *)

val save : t -> Util.Sexp.t
(** The session's complete resumable state: fed loads, clock, current
    configuration, engine and stepper payloads. *)

val restore : t -> Util.Sexp.t -> (unit, string) result
(** Load a {!save}d state into a session constructed with the same
    types, cost functions and cap.  Validates dimensions, the clock and
    the cap, and that the engine's and the stepper's clocks are the
    session's (the engine's arrival plane is only meaningful at its own
    slot); on [Error] the session may be partially overwritten —
    discard it. *)

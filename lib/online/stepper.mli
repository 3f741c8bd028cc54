(** The per-slot state machines of algorithms A and B, factored out of
    the batch runners so the same logic drives batch runs
    ({!Alg_a.run}/{!Alg_b.run}), simulator controllers and the streaming
    API — one implementation, no drift.

    A stepper holds the power-down bookkeeping of the groups still on
    (A's open timers; B's running idle sums and the sum at each open
    group's power-up) and the power events, which are its one record of
    the decisions; each [step] applies the slot's power-downs and then
    powers up to the supplied optimal-prefix configuration [hat].

    {b Power-event log.}  Each server type keeps its power events in
    time order in one append-only [int array] on the OCaml heap, one
    word per event: the event's slot and the type's active count after
    it, packed as [slot lsl 31 lor count].  The array doubles from 8
    words as it fills.  The packing holds counts up to [2^31 - 1] and
    slots up to [max_int lsr 31] ([2^31 - 1] with 63-bit ints); nothing
    is truncated: a fleet with more servers of one type is refused when
    the stepper is built, a slot past the limit by {!step}, and a
    payload whose clock lies past it by {!restore}. *)

type t

val alg_a : Model.Instance.t -> t
(** Algorithm A's timers ([t_j = ceil(beta_j / f_j(0))]); raises
    [Invalid_argument] on time-dependent instances.  Every constructor
    raises [Invalid_argument] on a server type of more than [2^31 - 1]
    servers, the event log's limit. *)

val alg_b : Model.Instance.t -> t
(** Algorithm B's idle-budget rule; raises [Invalid_argument] unless
    every [beta_j > 0]. *)

val alg_det2d : Model.Instance.t -> t
(** The deterministic break-even rule of the sister paper
    (arXiv:2107.14672): algorithm B's accumulated-idle bookkeeping, but
    a group powers down as soon as its idle cost {e reaches} [beta_j]
    instead of strictly exceeding it.  Restricted to load-independent
    costs (possibly time-dependent prices); [step] raises
    [Invalid_argument] on a slot whose cost function is not constant.
    On time-independent instances the rule coincides with algorithm A's
    [ceil(beta_j / l_j)] timers, so the measured ratio meets the [2d]
    bound of Corollary 9 there.  Requires every [beta_j > 0]. *)

val alg_homog : Model.Instance.t -> t
(** The pooled homogeneous rule (arXiv:1807.05112): applicable when
    [d = 1] or all server types coincide ([beta], [cap] and the cost
    functions equal — the latter checked per slot in [step]).  The
    summed active count follows one accumulated-idle break-even budget
    and the per-type split is kept canonical (type 0 filled first), so
    the guarantee is independent of [d].  Raises [Invalid_argument] on
    non-coinciding types, [beta <= 0], or time-varying fleet sizes. *)

val step : t -> time:int -> hat:Model.Config.t -> Model.Config.t
(** Process one slot (slots must be fed in order, starting at 0) and
    return the resulting active configuration (a fresh array).  Raises
    [Invalid_argument] on a slot past the event log's limit. *)

val time : t -> int
(** Number of slots stepped so far. *)

val power_ups : t -> (int * int * int) list
(** Chronological [(time, typ, count)] power-up events so far, derived
    from the logs: by slot, then type. *)

val power_downs : t -> (int * int * int) list
(** Chronological power-down events so far (empty for a type of
    algorithm A that never powers down): by slot, then type, then
    group, oldest first. *)

val decisions : ?until:int -> t -> from_:int -> Model.Config.t array
(** The configurations of slots [from_, until) ([until] defaults to
    {!time}; both are clamped into [0, time]), read from the power-event
    logs: each type's count at [from_] by binary search, then forward
    through the window, so the cost is O(d log E + (until - from_) * d)
    for E events, however old the window. *)

val runtimes : t -> int option array
(** Algorithm A's timers per type ([None] = never powers down); raises
    [Invalid_argument] on any other stepper. *)

type batch = {
  stepper : t;  (** the stepper after the last slot (its power events) *)
  schedule : Model.Schedule.t;
  prefix_last : Model.Config.t array;  (** [x^_t] per slot *)
  prefix_costs : float array;  (** [C(X^t)] per slot *)
}

val run :
  ?grid:Offline.Grid.t -> span:string -> (Model.Instance.t -> t) -> Model.Instance.t -> batch
(** [run ~span make inst] is the batch loop of {!Alg_a.run},
    {!Alg_b.run}, {!Alg_det2d.run} and {!Alg_homog.run}: inside the
    span [span], a {!Prefix_opt} engine ([grid] as in
    {!Prefix_opt.create}) feeds each slot's [x^_t] to [make inst]. *)

val rebind : t -> Model.Instance.t -> unit
(** Swap in a new instance agreeing with the slots already processed —
    the streaming layer's buffer growth.  Same number of types; the
    horizon must cover the slots stepped so far.  No state depends on
    the horizon, so subsequent steps are bit-identical to a stepper
    built over the new instance from scratch.  Raises
    [Invalid_argument] on a mismatch. *)

val save : t -> Util.Sexp.t
(** The stepper's resumable state: clock, active configuration, power
    events, and for B, det2d and homog the running idle sums
    (bit-exact floats) and open groups.  A's open timers are not
    stored: {!restore} rebuilds them from the power-ups. *)

val restore : t -> Util.Sexp.t -> (unit, string) result
(** Load a {!save}d state into a stepper freshly built over the same
    instance with the same rule; stepping afterwards is
    decision-for-decision identical to the uninterrupted stepper.
    Validates the rule tag, dimensions and clock (at most the event
    log's slot limit), and the power events: each at a processed slot,
    of an existing type, with a positive count, in slot-then-type
    order, never taking a type's running count below 0 or above its
    fleet size (a type's power-downs in a slot apply before its
    power-ups, as {!step} makes them), and together leading from
    all-off to the saved configuration.  The open groups (B, det2d,
    homog) and the rebuilt timers (A) must name processed slots and sum
    to the saved configuration per type (homog: in total).

    Payloads written before the budget kept running sums still
    restore: their idle prefix rows convert exactly (the running sum is
    [row.(clock)], a group's base [row.(u + 1)]), and A's old [w] table
    is ignored.  On [Error] the stepper may be partially overwritten —
    discard it. *)

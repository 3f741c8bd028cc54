(** The per-slot state machines of algorithms A and B, factored out of
    the batch runners so the same logic drives batch runs
    ({!Alg_a.run}/{!Alg_b.run}), simulator controllers and the streaming
    API — one implementation, no drift.

    A stepper holds the power-down bookkeeping of the groups still on
    (A's open timers; B's running idle sums and the sum at each open
    group's power-up) and the power events, which are its one record of
    the decisions; each [step] applies the slot's power-downs and then
    powers up to the supplied optimal-prefix configuration [hat]. *)

type t

val alg_a : Model.Instance.t -> t
(** Algorithm A's timers ([t_j = ceil(beta_j / f_j(0))]); raises
    [Invalid_argument] on time-dependent instances. *)

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
    return the resulting active configuration (a fresh array). *)

val time : t -> int
(** Number of slots stepped so far. *)

val power_ups : t -> (int * int * int) list
(** Chronological [(time, typ, count)] power-up events so far. *)

val power_downs : t -> (int * int * int) list
(** Chronological power-down events so far (empty for a type of
    algorithm A that never powers down). *)

val decisions : ?until:int -> t -> from_:int -> Model.Config.t array
(** The configurations of slots [from_, until) ([until] defaults to
    {!time}; both are clamped into [0, time]), rebuilt from the power
    events by walking back from the current configuration: the cost is
    O((time - from_) * d) plus the events from [from_] on, so the last
    few slots cost only their own. *)

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
    Validates the rule tag, dimensions and clock, and the power events:
    each at a processed slot, of an existing type, with a positive
    count, in time order, and together leading from all-off to the
    saved configuration.  The open groups (B, det2d, homog) and the
    rebuilt timers (A) must name processed slots and sum to the saved
    configuration per type (homog: in total).

    Payloads written before the budget kept running sums still
    restore: their idle prefix rows convert exactly (the running sum is
    [row.(clock)], a group's base [row.(u + 1)]), and A's old [w] table
    is ignored.  On [Error] the stepper may be partially overwritten —
    discard it. *)

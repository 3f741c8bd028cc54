(** Reference policies the paper's algorithms are compared against.

    None of these carries the paper's guarantee; they are the natural
    operating practices (peak provisioning, eager power-down) plus the
    fractional homogeneous LCP of Lin et al. [23, 24] and a
    lookahead-cheating receding-horizon planner, reproduced to show the
    shape of the comparison (who wins where). *)

val always_on : Model.Instance.t -> Model.Schedule.t
(** Static peak provisioning: the single configuration with minimal total
    cost when held over the whole horizon (feasible in every slot).
    Raises [Invalid_argument] if no single configuration covers every
    slot. *)

val follow_demand : Model.Instance.t -> Model.Schedule.t
(** Myopic right-sizing: per slot, the configuration minimising the
    operating cost [g_t(x)] alone, ignoring switching costs — the
    "power down whenever idle" extreme. *)

val receding_horizon : window:int -> Model.Instance.t -> Model.Schedule.t
(** Re-plans an optimal schedule over the next [window] slots from the
    current state and commits only the first decision.  With lookahead
    it is not an online algorithm in the paper's sense; it bounds what
    limited foresight buys. *)

val lcp_1d : Model.Instance.t -> Model.Schedule.t
(** The lazy-capacity-provisioning principle of [23, 24] transplanted to
    the discrete homogeneous case ([d = 1] required): stay put while the
    previous count lies between the smallest and largest optimal-prefix
    counts, otherwise move to the nearest bound.  Raises
    [Invalid_argument] when [d <> 1]. *)

(** One served right-sizing session: a named {!Online.Streaming}
    instance.

    A session is created from a {e scenario spec} — the name of a
    built-in {!Sim.Scenarios} entry (the scenario supplies the server
    types and cost functions; its loads are ignored, the client streams
    its own) and an optional hard cap on the number of slots.  The
    scenario's time-independence picks the algorithm: A for
    time-independent costs, B otherwise — exactly the choice
    {!Online.Streaming} offers.

    Feeding is {e idempotent}: the stepper's power events are the one
    record of every decision returned, so a client that re-delivers
    slots it already fed (after a crash on either side) gets the same
    configurations back, bit-identical, rebuilt from the events without
    re-stepping.

    Sessions serialise through {!save}/{!of_sexp} — spec and the
    complete streaming state — which is what the store's [base.store]
    aggregates at each cement boundary. *)

type spec = {
  scenario : string;
  max_horizon : int option;
  alg : string option;
      (** requested solver name; [None] picks [a] or [b] from the
          scenario's cost structure *)
}

type t

val create : id:string -> spec -> (t, Protocol.error_code * string) result
(** Build a fresh session (0 slots fed).  Fails with
    [Unknown_scenario] when the spec names no registry entry. *)

val id : t -> string
val spec : t -> spec
val alg : t -> string
(** ["a"] or ["b"]. *)

val num_types : t -> int
val fed : t -> int

val feed :
  t -> seq:int -> float array -> (Model.Config.t array, Protocol.error_code * string) result
(** Process the loads for slots [seq, seq + n).  Slots below {!fed} are
    answered with their original decisions, rebuilt from the power
    events ({!Online.Streaming.decisions}; the volumes re-sent for them
    are not read, so a client that re-feeds different volumes for old
    slots gets the original decisions).  The rebuild costs a binary
    search per server type plus the frame's own slots, however old the
    frame.  Slots at and past {!fed} are stepped.  [seq]
    beyond {!fed} is a gap and fails with [Bad_seq].  On a typed
    streaming error the session survives, the slots before the error
    remain processed, and the error carries {!fed} via the daemon's
    reply. *)

val instance :
  ?avail:bool -> scenario:string -> float array -> Model.Instance.t option
(** [instance ~scenario loads] is the instance a session of [scenario]
    fed [loads] solves: the scenario at its default horizon over those
    loads ({!Model.Instance.with_loads}, [?avail] passed through).  This
    is what the shadow audit, [rightsizer replay] and the scenario
    runner price decisions and solve OPT on.  [None] when no registry
    entry has that name. *)

val replay :
  spec -> loads:float array -> (Model.Config.t array, Protocol.error_code * string) result
(** The decisions a fresh session of [spec] makes when fed [loads] from
    slot 0: the sequential re-run a served session is judged against. *)

val decisions_from : t -> from_:int -> Model.Config.t array
(** The decisions for slots [from_, fed) (fresh arrays), rebuilt from
    the power events. *)

val loads : t -> float array
(** A copy of the volumes fed so far (length {!fed}) — together with
    {!decisions_from} and {!spec}, everything the shadow oracle needs to
    re-cost this session offline ({!instance}). *)

val loads_from : t -> from_:int -> float array
(** The volumes for slots [from_, fed) only — what the daemon logs for
    a round's freshly stepped slots without copying the whole history. *)

val save : t -> Util.Sexp.t
(** [(session (id ..) (scenario ..) (max-horizon ..)? (alg ..)? (state ..))] *)

val of_sexp : Util.Sexp.t -> (t, string) result
(** Rebuild a {!save}d session: create from the spec and restore the
    streaming state.  The result continues decision-for-decision
    identically to the saved one.  A payload written while sessions
    kept a decision history carries a [history] field: it is refused
    unless the history equals the decisions the restored power events
    give, and is then dropped. *)

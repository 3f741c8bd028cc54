(** Deterministic fault injection.

    A robustness layer is only trustworthy if its failure paths are
    exercised, and failure paths are only debuggable if the failures are
    reproducible.  This module lets tests (and the CLI) {e arm} named
    fault sites — [pool.job], [dp.layer_fill], [streaming.feed],
    [snapshot.write], [audit.replay] — with a deterministic firing plan; instrumented
    code calls {!hit} (or {!check}) at each site and receives an
    {!Injected} exception exactly when the plan says so.  Randomised
    plans draw from a seeded {!Prng} stream split per site, so a seed
    plus a site list replays a failure bit-for-bit.

    Recovery paths (a pool degrading to sequential, a DP layer being
    refilled) run under {!suppressed} so the retry cannot be re-faulted
    into a livelock, and report themselves through {!recovered}.

    Telemetry ({!Obs.Counter}, [faultinj.] prefix): [faultinj.hits]
    (site visits while armed), [faultinj.injected] (faults fired),
    [faultinj.recovered] (faults absorbed by a recovery path).  Each
    fired fault also emits a [faultinj.injected] instant span carrying
    the site name and ordinal. *)

type fault = { site : string; ordinal : int }
(** [ordinal] is the 1-based count of hits at [site] when the fault
    fired — enough to re-arm [Nth ordinal] and replay it. *)

exception Injected of fault
(** The injected failure.  Instrumented code never catches it silently:
    it either recovers (and says so via {!recovered}) or lets it
    propagate as a clean, typed error. *)

type plan =
  | Nth of int     (** fire on the nth hit of the site (1-based), once *)
  | Every of int   (** fire on every nth hit *)
  | Prob of float  (** fire each hit with this probability (seeded) *)

val arm : ?seed:int -> (string * plan) list -> unit
(** Install the given site plans (replacing any previous arming) and
    reset all hit counts.  [seed] (default 0) drives the [Prob] plans:
    equal seeds and call sequences fire identically. *)

val disarm : unit -> unit
(** Remove all plans.  {!hit} becomes free (one atomic load). *)

val armed : unit -> bool

val hit : string -> unit
(** Announce reaching [site]; raises {!Injected} when the site's plan
    fires.  A no-op (beyond counting) for unarmed sites, and entirely
    when disarmed or {!suppressed}. *)

val check : string -> fault option
(** Like {!hit} but returns the fault instead of raising — for sites
    that must simulate the failure themselves (e.g. a torn snapshot
    write) before propagating it. *)

val suppressed : (unit -> 'a) -> 'a
(** Run the thunk with injection disabled (nestable, and global across
    domains: a recovery retry may fan work back out to pool workers). *)

val recovered : string -> unit
(** Record that an injected fault at [site] was absorbed by a recovery
    path (bumps [faultinj.recovered] and emits an instant span). *)

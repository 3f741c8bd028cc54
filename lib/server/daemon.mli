(** The multi-session right-sizing daemon.

    A single-threaded [select] loop multiplexes any number of client
    connections (Unix-domain and/or loopback TCP) over one global
    session table.  Each scheduling round drains every readable
    connection, then executes the round's requests in three phases:

    + {e early} — [hello], [create-session], [stats];
    + {e step} — all [feed] requests, grouped by session (each
      session's frames in arrival order) and fanned out across a
      {!Util.Pool} when one is configured, so concurrent sessions
      share the persistent domains;
    + {e late} — [snapshot], [close], [shutdown].

    Replies are always written in per-connection arrival order, so a
    client that waits for each reply observes strictly sequential
    semantics.  Sessions belong to the daemon, not to a connection: a
    dropped connection leaves its sessions intact for a later
    [create-session] re-attach.

    Durability: with [log_dir] set, the incremental store
    ({!Store.Log} / {!Store.Cemented}) is the daemon's only durable
    state.  Every round appends one record per state transition and
    fsyncs once, so per-round durability work is O(records that round);
    once the tail passes [cement_every] records it is folded into an
    immutable chunk with the table as the new base, and a graceful stop
    cements once more.  [create ~resume:true] rebuilds the table from
    base + tail, and every recovered session continues
    decision-for-decision identically.  Without [log_dir] the daemon
    keeps no durable state.

    Store failures are crash-only.  A failed round flush (or a failed
    tail truncate after a cement) raises {!Store_failed} before any of
    that round's replies is written; the process exits and a
    [~resume:true] restart recovers the last fsync'd round.  A failed
    recovery makes {!create} return [Error].  A failed cement keeps the
    fsync'd tail and retries at the next threshold crossing.

    Fault sites ({!Util.Faultinj}): [server.accept] (the incoming
    connection is accepted and immediately closed), [server.read] (the
    connection is dropped; its sessions survive), [server.step] (the
    faulted session's frames in that round are answered with an
    [injected] error before any state changes, so the client can
    simply re-send).  All three degrade the one connection or round —
    the daemon never dies.  The store adds [store.append] (the round's
    flush tears and raises {!Store_failed}), [store.cement] (a torn
    [chunk-*.store.tmp] orphan is left and the cement retries at the
    next threshold crossing) and [store.recover] ({!create} fails).

    Telemetry ({!Obs.Counter}, [server.] prefix): [server.accepts],
    [server.requests], [server.decisions], [server.batches],
    [server.batch_size] (summed stepped-session count per round —
    divide by [server.batches] for the mean), [server.faults],
    [server.disconnects], [server.sessions_created], and on graceful stop
    [server.latency_p50_us] / [server.latency_p99_us] so the CLI's
    [--metrics] export carries the latency distribution.  Each step
    phase runs inside a [server.batch] span. *)

type config = {
  unix_path : string option;   (** Unix-domain socket path *)
  tcp_port : int option;       (** TCP port, bound to 127.0.0.1 *)
  pool : Util.Pool.t option;   (** fan step batches out across domains *)
  max_frame_bytes : int;
  max_sessions : int;
  crash_after_slots : int option;
      (** testing hook: [exit 3] mid-loop (no final cement — the
          deterministic stand-in for [kill -9]) once this many slots
          have been stepped *)
  metrics_port : int option;
      (** loopback TCP port serving the Prometheus scrape over one-shot
          HTTP/1.0 exchanges, multiplexed in the same select loop *)
  audit_every : int option;
      (** enable the {!Audit} shadow oracle, auditing every this many
          freshly stepped slots *)
  audit_sample : int;  (** sessions sampled per audit batch *)
  audit_sync : bool;
      (** run audits inline instead of on the worker thread —
          deterministic for tests *)
  log_dir : string option;
      (** directory for the incremental store (tail log + cemented
          chunks); [None] keeps no durable state *)
  cement_every : int;
      (** fold the tail into a cemented chunk once it holds this many
          fsync'd records *)
}

val default_config : config
(** No listeners, no pool, no metrics port, no auditing
    ([audit_sample = 4]), [max_frame_bytes = Codec.default_max_frame_bytes],
    [max_sessions = 1024], no [log_dir], [cement_every = 4096]. *)

type t

exception Store_failed of string
(** A round's log flush, or the tail truncate after a cement, failed.
    Raised out of {!handle} and {!run} before any of the round's
    replies is written; the daemon must be abandoned and restarted
    with [~resume:true]. *)

val create : ?resume:bool -> config -> (t, string) result
(** Open the store (when [log_dir] is set) and bind the configured
    listeners (at least one of [unix_path] / [tcp_port] is required; an
    existing socket file is replaced).  With [resume] (default [false];
    requires [log_dir]) the session table is recovered from the store
    first, and any recovery failure is an [Error]. *)

val run : t -> unit
(** The blocking serve loop; returns after {!request_stop} (or a
    [shutdown] request), having {!close}d the daemon.  Raises
    {!Store_failed}. *)

val close : t -> unit
(** Graceful stop: cement the log, stop the audit worker, close every
    socket and remove the Unix socket file.  {!run} ends with it; a
    daemon driven through {!handle} calls it once when done.  Raises
    {!Store_failed}. *)

val request_stop : t -> unit
(** Signal- and thread-safe: the loop exits within its select timeout. *)

val handle : t -> Protocol.request -> Protocol.response
(** Execute one request synchronously against the session table,
    bypassing the sockets and the hello gate — the unit-test and
    bench entry point.  Semantically identical to sending the request
    on an otherwise idle connection.  Raises {!Store_failed}. *)

val session_count : t -> int
val stepped_slots : t -> int

val stats : t -> Protocol.stats

val metrics_body : t -> string
(** The full Prometheus-format scrape: the process-wide
    counter/gauge/histogram registries plus the daemon's own series
    (request-latency and batch-duration histograms, session/connection/
    pool-occupancy gauges, the age of the last fsync'd round, per-session fed-slot
    distribution) and, when auditing is enabled, the shadow oracle's
    regret metrics.  The same body answers the [metrics] protocol
    request and the [--metrics-port] HTTP listener. *)

val audit : t -> Audit.t option
(** The shadow oracle, when [audit_every] is configured. *)

(** Persistent domain pool for data-parallel index ranges.

    A pool spawns its workers once and reuses them for every job; its
    one user is the daemon ([serve --domains]), which fans each round's
    session steps out across it.  Each job is a contiguous index range
    that the participating domains consume in chunks through a single
    atomic cursor (lock-free work distribution; the mutex/condvar pair
    is only touched to publish a job and to sleep between jobs).  No
    external dependency — hand-rolled rather than domainslib, like the
    rest of [lib/util].

    Results are deterministic whenever the work items are: every index
    is executed exactly once, and which domain runs it cannot be
    observed by pure work functions.

    Telemetry ({!Obs.Counter}, all under the [pool.] prefix):
    [pool.pools] and [pool.domain_spawns] (creation), [pool.jobs] /
    [pool.seq_jobs] / [pool.nested_jobs] (parallel, trivially
    sequential, and nested-submit executions), [pool.chunks] (range
    chunks consumed), [pool.queue_waits] (worker sleeps — a proxy for
    idle workers), [pool.busy_us] (summed per-domain busy time — worker
    utilisation is [busy_us / (wall * workers)]), [pool.degraded_jobs]
    (jobs rerun sequentially after an injected worker failure).  Each
    parallel job also runs inside a [pool.run] span carrying
    [n]/[workers]/[chunks] args.

    Fault site: [pool.job] ({!Faultinj}) fires at chunk boundaries,
    simulating a worker domain dying mid-job.  {!run} absorbs it by
    re-running the whole range sequentially under
    {!Faultinj.suppressed} — correct because work items are required
    to be idempotent — and re-raises every {e real} exception
    unchanged. *)

type t

val max_domains : int
(** Upper bound on a pool's size (64).  The OCaml runtime refuses to
    run more than ~128 domains process-wide; [create] clamps to this
    so several pools plus the caller's own domains always fit. *)

val create : ?name:string -> domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains (the
    submitting domain is the remaining participant).  [domains] is
    clamped to [1 .. max_domains]; [name] labels the pool's spans.
    Workers sleep on a condition variable between jobs and cost nothing
    while idle.  If the runtime cannot allocate all requested domains,
    the pool degrades to however many it got ({!size} tells). *)

val size : t -> int
(** Total participating domains, including the submitter ([>= 1]). *)

val is_shutdown : t -> bool

val run : t -> n:int -> (int -> unit) -> unit
(** [run t ~n f] executes [f i] once for every [0 <= i < n], fanning the
    range out across every domain of the pool, the submitting domain
    included.  [f] must be safe to call concurrently for distinct [i]
    (pure, or writing only to index-disjoint state).  Blocks until
    every index has completed.

    The first exception raised by any [f i] is re-raised in the
    submitter after the range completes (remaining chunks are skipped,
    already-started ones finish).  Calling [run] from inside a running
    work item — on any pool — executes the nested range sequentially
    instead of deadlocking.  Raises [Invalid_argument] after
    {!shutdown}. *)

val shutdown : t -> unit
(** Wake and join the workers.  Idempotent; concurrent use of {!run}
    during shutdown is not allowed.  Pools left running at process exit
    are harmless only if their domains are joined eventually, so every
    pool's creator shuts it down ({!with_pool} does). *)

val with_pool : ?name:string -> domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] creates a pool, applies [f], and shuts the
    pool down (also on exceptions). *)

(** Data-parallel helpers over OCaml 5 domains, backed by a persistent
    {!Pool}.

    The dynamic programs spend almost all their time in independent
    [g_t(x)] evaluations per grid state; these helpers fan such loops
    out across domains.  Work items must be safe to run concurrently
    for distinct indices (pure, or writing only index-disjoint state).

    Jobs are executed on a {!Pool.t}: either the one passed as [?pool],
    or a process-wide {!global} pool that is created on first use and
    grown when a larger [domains] is requested — so repeated parallel
    sections (one per DP layer, say) reuse the same worker domains
    instead of paying a [Domain.spawn]/join per section.  No external
    dependency (hand-rolled rather than domainslib). *)

val recommended_domains : unit -> int
(** A sensible worker count: [Domain.recommended_domain_count], at
    least 1. *)

val effective_domains : int -> int
(** The fan-out {!parallel_for} will actually use for a request of the
    given width — the request capped at {!recommended_domains}.  Callers that *restructure*
    work for parallelism (e.g. precomputing a dense candidate array a
    pruned sequential scan would mostly skip) should gate on this, not
    on the requested width: when the fan-out collapses to 1 the
    restructuring is pure overhead. *)

val min_parallel_items : int
(** Ranges smaller than this are always executed sequentially and never
    reach the pool (below it, chunk hand-off and submitter wake-up cost
    more than the fan-out saves — even with persistent workers).  The
    default cutoff for every function here; override per call with
    [?min_items] (the pool property tests force [~min_items:1] to
    exercise the parallel path on small grids). *)

val global : domains:int -> Pool.t
(** The process-wide pool, created on first use and replaced by a
    larger one when [domains] exceeds its size (the old workers are
    joined first).  Shut down automatically [at_exit].  Useful when a
    caller has a [domains] count but no pool to thread through. *)

val parallel_for :
  ?pool:Pool.t -> ?min_items:int -> domains:int -> n:int -> (int -> unit) -> unit
(** [parallel_for ~domains ~n f] runs [f i] for every [0 <= i < n] —
    sequentially when [domains <= 1] or [n < min_items], otherwise on
    [pool] (default: [global ~domains]) with at most [domains]
    participating domains.  The pooled width is additionally capped at
    {!recommended_domains}: oversubscribing the cores only adds
    hand-off overhead, and on a single-core machine the cap makes a
    pooled request identical to the sequential loop instead of slower
    than it. *)

val parallel_fill :
  ?pool:Pool.t -> ?min_items:int -> domains:int -> 'a array -> (int -> 'a) -> unit
(** [parallel_fill ~domains out f] sets [out.(i) <- f i] for every
    index, via {!parallel_for}. *)

val parallel_init :
  ?pool:Pool.t -> ?min_items:int -> domains:int -> int -> (int -> 'a) -> 'a array
(** Allocate and {!parallel_fill}.  Works for any element type: [f 0]
    is evaluated (once, eagerly) to seed the array, then every index
    including 0 is filled — so [f] must tolerate a second call at
    index 0. *)

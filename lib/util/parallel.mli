(** Data-parallel helpers over OCaml 5 domains, backed by a persistent
    {!Pool}.

    The dynamic programs spend almost all their time in independent
    [g_t(x)] evaluations per grid state; these helpers fan such loops
    out across domains.  Work items must be safe to run concurrently
    for distinct indices (pure, or writing only index-disjoint state).

    The only way to ask for parallelism is to pass a {!Pool.t} as
    [?pool]; without one every helper is the plain sequential loop.  A
    caller builds the pool once (the CLI's [--domains], say) and hands
    it to every parallel section, so repeated sections (one per DP
    layer) reuse the same worker domains.  No external dependency
    (hand-rolled rather than domainslib). *)

val recommended_domains : unit -> int
(** A sensible worker count: [Domain.recommended_domain_count], at
    least 1. *)

val width : Pool.t option -> int
(** The fan-out every helper here uses on [pool]: the pool's size
    capped at {!recommended_domains}, and 1 without a pool.
    Oversubscribing the cores only adds hand-off overhead, and on a
    single-core machine the cap makes a pooled call identical to the
    sequential loop instead of slower than it.  Callers that
    {e restructure} work for parallelism (e.g. precomputing a dense
    candidate array a pruned sequential scan would mostly skip) should
    gate on this: when the fan-out is 1 the restructuring is pure
    overhead. *)

val min_parallel_items : int
(** Ranges smaller than this are always executed sequentially and never
    reach the pool (below it, chunk hand-off and submitter wake-up cost
    more than the fan-out saves — even with persistent workers).  The
    default cutoff for every function here; override per call with
    [?min_items] (the pool property tests force [~min_items:1] to
    exercise the parallel path on small grids). *)

val parallel_for : ?pool:Pool.t -> ?min_items:int -> n:int -> (int -> unit) -> unit
(** [parallel_for ?pool ~n f] runs [f i] for every [0 <= i < n] — on
    [pool] with {!width} participating domains when that width exceeds
    1 and [n >= min_items], sequentially otherwise. *)

val parallel_fill : ?pool:Pool.t -> ?min_items:int -> 'a array -> (int -> 'a) -> unit
(** [parallel_fill ?pool out f] sets [out.(i) <- f i] for every index,
    via {!parallel_for}. *)

val parallel_init : ?pool:Pool.t -> ?min_items:int -> int -> (int -> 'a) -> 'a array
(** Allocate and {!parallel_fill}.  Works for any element type: [f 0]
    is evaluated (once, eagerly) to seed the array, then every index
    including 0 is filled — so [f] must tolerate a second call at
    index 0. *)

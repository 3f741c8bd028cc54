(** Hierarchical timed regions and point events.

    A span is a [Begin]/[End] event pair around a closure; nesting is
    implied by emission order per domain, so the exporters can rebuild
    the call tree without a shared stack.  All timing uses the wall
    clock — unlike [Sys.time], which counts {e CPU} time summed over
    every domain and therefore over-reports multicore sections such as
    a domain pool's job. *)

val now_us : unit -> float
(** Wall-clock microseconds since an arbitrary per-process epoch (the
    timebase of every {!Events.t}). *)

val tid : unit -> int
(** The current domain's id. *)

val with_ : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f] inside a span called [name].  Without an
    installed sink this is just [f ()] after one atomic read, and the
    ["span.dropped"] counter is bumped so silently-lost instrumentation
    is visible in the metrics snapshot.  The [End] event is emitted even
    when [f] raises. *)

val instant : ?args:(string * string) list -> string -> unit
(** Emit a point event (rendered as a Chrome "instant"); without a sink
    it only bumps ["span.dropped"].  When [args] are costly to build,
    guard the call with {!Sink.installed} to avoid the allocation in
    disabled runs. *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] is [(f (), wall seconds f took)].  The replacement for the
    ad-hoc [Sys.time] pairs in the experiment tables. *)

val timed_n : int -> (unit -> 'a) -> float
(** [timed_n n f] runs [f] [n] times and returns the mean wall seconds
    per run.  Raises [Invalid_argument] when [n <= 0]. *)

(** Cemented store — immutable chunk files folded out of the live tail.

    A log directory holds:

    {v
    tail.log             the live Store.Log tail (fsync'd per round)
    chunk-000000.store   immutable, individually-CRC'd record chunks
    chunk-000001.store
    index.store          offset index: (seq, first-record, count) per chunk
    base.store           state snapshot taken at the last cement boundary
    v}

    {!cement} folds the tail's records into the next chunk, updates the
    index, and writes the caller's base snapshot; the caller then
    truncates the tail ({!Log.reset}).  Every file is a
    {!Util.Snapshot} container (atomic rename, FNV-1a checksum), and
    the write order makes every crash point safe: a chunk missing from
    the index is re-derived by {!read_chunks}, and an untruncated tail
    merely replays records already folded into the base — record
    application is idempotent, so the result is bit-identical.

    {!recover} reads only [base.store] + [tail.log]; cemented chunks
    exist for historical replay, so daemon recovery is O(base + tail)
    no matter how much history has accumulated.

    Fault sites ({!Util.Faultinj}): [store.cement] (dies mid-compaction
    leaving a torn [chunk-*.store.tmp] orphan; live files untouched) and
    [store.recover] (fires before anything is read; the daemon's start
    fails). *)

val tail_path : dir:string -> string
val chunk_path : dir:string -> int -> string
val index_path : dir:string -> string
val base_path : dir:string -> string

type chunk_info = { seq : int; first : int; count : int }

val read_index : dir:string -> (chunk_info list, string) result
(** The offset index, oldest chunk first; an absent index is empty. *)

val cement :
  dir:string ->
  ?base:Util.Sexp.t ->
  records:Log.record list ->
  unit ->
  (int, string) result
(** Fold [records] into the next chunk and update the index; [base] is
    the caller's opaque state snapshot at this boundary.  Returns the
    new chunk's sequence number.  May raise {!Util.Faultinj.Injected}
    when [store.cement] is armed. *)

val write_base : dir:string -> Util.Sexp.t -> (unit, string) result
(** Rewrite only [base.store] — a "rebase" for state that did not come
    from this log (a daemon's fresh epoch); the caller truncates the
    tail afterwards. *)

type recovery = {
  base : Util.Sexp.t option;  (** state at the last cement boundary *)
  tail : Log.scan;            (** records appended since then *)
  chunks : int;
  cemented_records : int;
}

val recover : dir:string -> (recovery, string) result
(** Load [base.store] (if any) and scan the tail — O(base + tail).  May
    raise {!Util.Faultinj.Injected} when [store.recover] is armed. *)

val read_chunks : dir:string -> (Log.record list, string) result
(** Every cemented record in order, including a trailing chunk the
    index does not list yet.  A corrupt chunk is a hard error. *)

val read_all : dir:string -> (Log.record list, string) result
(** {!read_chunks} followed by the live tail — the full replay feed. *)

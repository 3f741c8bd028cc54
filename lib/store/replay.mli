(** Historical replay's first half: reconstruct recorded sessions from
    the store.

    {!traces} folds the cemented chunks plus the live tail back into
    per-session load histories.  The fold is idempotent under the
    overlaps crash recovery can produce (a tail never truncated after a
    cement): duplicate [Create]s are ignored and an overlapping [Feed]
    contributes only its fresh suffix, mirroring [Session.feed].

    Re-running and judging the traces is [Server.Audit.replay_store]'s
    job: it needs the serving session, which sits above this library. *)

type trace = {
  id : string;
  scenario : string;
  max_horizon : int option;
  alg : string option;  (** requested at create time *)
  alg_used : string;    (** what the daemon actually ran *)
  loads : float array;  (** full fed history, in feed order *)
  closed : bool;
}

val traces_of_records : Log.record list -> (trace list, string) result
(** Fold a record stream (chunks then tail) into traces, in order of
    first appearance.  A feed leaving a gap is a hard error. *)

val traces : dir:string -> (trace list, string) result

(** Spawn and tear down a real daemon process.

    The system tests (and the scenario runner) exercise the daemon the
    way production does: a separate [rightsizer serve] process reached
    over the wire protocol, not an in-process {!Daemon.handle} call.
    This module owns the process-management half of that: build the
    [serve] argv from a {!config}, fork/exec it with stdout+stderr
    captured to a log file, wait until the Unix socket actually accepts
    a connection, and stop it — gracefully (SIGTERM, which cements the
    store) or hard.

    Every spawned pid is tracked in a process-global registry and
    killed with SIGKILL from an [at_exit] hook, so a failed assertion
    in a test or runner can never leak a background daemon onto a CI
    runner — the guarantee the old shell scripts re-implemented with
    [trap] in every file. *)

type config = {
  bin : string;                   (** path to the rightsizer binary *)
  sock : string;                  (** Unix-domain socket path to serve on *)
  metrics_port : int option;
  resume : string option;
      (** [Some _] passes [--resume] (recover from [log_dir]); the
          payload names the recovered state for the caller's own
          bookkeeping and is not passed to the daemon *)
  crash_after : int option;       (** the daemon's deterministic kill -9 stand-in *)
  audit : (int * int) option;     (** --audit-every, --audit-sample *)
  faults : (string * string) list;
      (** [(site, plan)] pairs passed as [--fault site=plan]; plan
          syntax is [nth:N], [every:N] or [prob:P] *)
  fault_seed : int option;
  log_dir : string option;        (** --log-dir: the incremental store *)
  cement_every : int option;
  log : string;                   (** stdout+stderr capture file *)
  extra_args : string list;
}

val config : bin:string -> sock:string -> log:string -> config
(** A config with everything else off. *)

type t

val start : config -> (t, string) result
(** Fork/exec [bin serve ...].  Before forking, orphaned [*.tmp] files
    a killed daemon may have left in [log_dir] (torn snapshot renames,
    injected-crash chunk orphans) are removed, so a respawn in a reused workdir can never trip over a
    stale partial file.  The daemon is not yet ready — call
    {!wait_ready}. *)

val pid : t -> int

val alive : t -> bool
(** Non-blocking liveness probe (reaps the child when it has exited). *)

val wait_ready : ?timeout_s:float -> t -> (unit, string) result
(** Poll until the daemon's socket accepts a connection (then close the
    probe).  Fails early — with the tail of the log — when the process
    exits before binding, and on timeout (default 10s). *)

val wait_exit : ?timeout_s:float -> t -> (Unix.process_status, string) result
(** Wait (polling) for the process to exit on its own — e.g. after a
    [--crash-after] trip.  Does not signal it. *)

val stop : ?grace_s:float -> t -> Unix.process_status
(** SIGTERM, wait up to [grace_s] (default 10s) for a graceful exit,
    then SIGKILL.  Idempotent once the process is reaped. *)

val log_tail : ?lines:int -> t -> string
(** The last [lines] (default 5) of the daemon's captured output —
    for error messages. *)

val kill_all : unit -> unit
(** SIGKILL every tracked live daemon (the [at_exit] safety net,
    callable from signal handlers too). *)

val pick_free_port : unit -> int
(** Bind 127.0.0.1:0, read the kernel-chosen port, release it.  Racy by
    nature but adequate for tests that start the listener promptly. *)

(** Append-only per-daemon decision log — the live half of the daemon's
    durable state.

    Rewriting the whole session table on every checkpoint would make
    durability cost grow with the table.  The log instead appends one
    record per state transition (session created, loads fed, session
    closed), fsync-batched once per daemon round: per-round durability
    work is O(records appended that round), not O(sessions).

    Each record is framed as

    {v <len> <crc64> <payload>\n v}

    where [len] is the byte length of [payload] and [crc64] is the same
    FNV-1a 64-bit digest {!Util.Snapshot} stamps on snapshot containers
    ({!Util.Snapshot.fnv1a64}).  The payload is a one-line sexp with
    floats encoded bit-exactly ([%h]); free-form strings are
    percent-escaped so they are always single atoms.  A crash
    mid-append leaves a torn tail that fails the length or checksum
    check; {!read} stops at the first bad frame and {!open_writer}
    truncates the file back to the clean prefix, so the log is always
    a valid record sequence plus at most one discarded torn frame.

    Fault site: [store.append] ({!Util.Faultinj}).  When armed, {!flush}
    simulates the crash by writing half of the pending bytes and raising
    {!Util.Faultinj.Injected} — the torn tail is exactly what the next
    open must truncate. *)

type record =
  | Create of {
      id : string;
      scenario : string;
      max_horizon : int option;
      alg : string option;      (** the alg the client {e requested} *)
      alg_used : string;        (** the alg the daemon actually ran *)
    }
  | Feed of { id : string; seq : int; loads : float array }
      (** [seq] is the 0-based index of [loads.(0)] in the session's
          load history; replay concatenates the suffixes in order. *)
  | Close of { id : string }

val encode : record -> string
(** One complete frame, trailing newline included. *)

val record_to_sexp : record -> Util.Sexp.t
val record_of_sexp : Util.Sexp.t -> (record, string) result

type scan = {
  records : record list;  (** every complete, checksummed record, in order *)
  clean_bytes : int;      (** file offset after the last good record *)
  torn_bytes : int;       (** trailing bytes dropped by the scan *)
}

val scan_string : string -> scan
(** Scan raw log text, stopping at the first torn/corrupt frame. *)

val read : path:string -> (scan, string) result
(** Read and scan a log file; a missing file is an empty log. *)

(** {2 Writer} *)

type writer

val open_writer : ?sync:bool -> path:string -> unit -> (writer * scan, string) result
(** Open (creating if absent) for appending.  Any torn tail found by the
    scan is truncated away first; the returned {!scan} reports what was
    already on disk.  [sync] (default [true]) controls whether {!flush}
    fsyncs; benches disable it to measure the encode+write path. *)

val append : writer -> record -> unit
(** Buffer a record; nothing reaches the file until {!flush}. *)

val flush : writer -> (unit, string) result
(** Write all buffered records and fsync (unless [sync:false]).  May
    raise {!Util.Faultinj.Injected} when [store.append] is armed, after
    deliberately tearing the tail. *)

val reset : writer -> (unit, string) result
(** Truncate the log to empty — used after its records were folded into
    a cemented chunk — discarding any unflushed buffer. *)

val pending : writer -> int
(** Records buffered but not yet flushed. *)

val records_on_disk : writer -> int
(** Records durably written (clean prefix at open + flushes since). *)

val tail_bytes : writer -> int
(** Bytes on disk plus bytes buffered. *)

val close_writer : writer -> unit

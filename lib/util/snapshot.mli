(** Versioned, checksummed snapshots — the crash-safe persistence layer
    for checkpoint/resume.

    A snapshot file is a single s-expression container

    {v (rightsizer-snapshot (version 1) (kind K) (crc64 HEX) PAYLOAD) v}

    where [crc64] is an FNV-1a 64-bit digest of the rendered payload.
    {!load} verifies the magic, the version, the expected kind and the
    checksum before handing the payload back, so a torn or truncated
    write — a crash mid-checkpoint — is rejected with a typed error
    instead of resuming from corrupt state.  {!save} writes to a
    temporary file in the destination directory and renames it into
    place, so a crash between checkpoints always leaves the previous
    complete snapshot behind.

    Floats are encoded with {!float_atom} as hexadecimal literals
    ([%h]), which round-trip bit-exactly — the resumed state machines
    must be decision-for-decision identical to an uninterrupted run,
    and decimal shortest-round-trip printing is too easy to get subtly
    wrong across stdlib versions.

    Fault site: [snapshot.write] ({!Faultinj}).  When armed, {!save}
    simulates the crash by writing a truncated prefix {e directly} to
    the destination (bypassing the atomic rename) and raising
    {!Faultinj.Injected} — the torn file is exactly what {!load} must
    reject. *)

val version : int
(** Current container version (1). *)

type error =
  | Io_error of string        (** open/read/write/rename failure *)
  | Bad_format of string      (** not a snapshot container, or payload
                                  shape rejected by the decoder *)
  | Unknown_version of int    (** container from a future format *)
  | Wrong_kind of { expected : string; actual : string }
  | Bad_checksum of { expected : string; actual : string }
      (** torn/corrupted payload; [expected] is the stored digest *)
  | Too_large of { limit : int; actual : int }
      (** the file exceeds {!load}'s [max_bytes] read guard *)

val error_to_string : error -> string

val default_max_bytes : int
(** Default read guard for {!load} (1 GiB): far above any checkpoint
    this repo writes, but a hard ceiling so a corrupt or malicious
    snapshot cannot trigger an unbounded allocation. *)

val fnv1a64 : string -> string
(** The container's checksum: FNV-1a 64-bit, rendered as 16 lowercase
    hex digits.  Exposed so other persistence layers (the append-only
    session log in [Store.Log]) can frame their records with the same
    digest discipline. *)

val float_atom : float -> Sexp.t
(** Bit-exact float encoding ([%h]; [infinity] and [nan] spelled out). *)

val float_of_atom : Sexp.t -> float option

val int_atom : int -> Sexp.t
(** The decimal atom of an integer; those of 0 .. 255 are shared. *)

val float_array_field : string -> float array -> Sexp.t
(** [(name f0 f1 ...)] with bit-exact atoms. *)

val int_array_field : string -> int array -> Sexp.t

val floats_of_field : Sexp.t list -> string -> (float array, string) result
(** Decode a {!float_array_field} out of an association body; the
    [Error] carries the missing/malformed field name. *)

val ints_of_field : Sexp.t list -> string -> (int array, string) result

val int_of_field : Sexp.t list -> string -> (int, string) result

val render : kind:string -> Sexp.t -> string
(** The container text (trailing newline included). *)

val parse : ?kind:string -> string -> (Sexp.t, error) result
(** Verify magic, version, kind (when [kind] is given) and checksum;
    return the payload. *)

val save : path:string -> kind:string -> Sexp.t -> (unit, error) result
(** Atomic write (temp file + rename).  May raise {!Faultinj.Injected}
    when the [snapshot.write] fault site is armed — after leaving a
    deliberately torn file at [path]. *)

val load :
  ?kind:string -> ?max_bytes:int -> path:string -> unit -> (Sexp.t, error) result
(** Read and {!parse} a snapshot file.  The file's size (as reported by
    the file system, before any read) must not exceed [max_bytes]
    (default {!default_max_bytes}); an oversized file is rejected with
    {!Too_large} without being buffered. *)

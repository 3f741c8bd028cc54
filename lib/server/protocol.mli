(** The versioned request/response vocabulary of the serving daemon.

    Messages are s-expressions carried in {!Codec} frames.  The
    handshake pins the protocol version: a client opens with
    [(hello (version 1))] and the daemon answers [(welcome ...)] or an
    [unsupported-version] error.  Floats on the wire (the [feed]
    volumes) use {!Util.Snapshot.float_atom}'s bit-exact hexadecimal
    encoding, so a served session and a local oracle fed "the same"
    trace really do see identical doubles — the decision-for-decision
    identity the end-to-end tests assert would not survive a lossy
    decimal round trip.

    Free-form strings (error messages) and client-chosen identifiers
    travel through {!quote}/{!unquote}, which percent-encode the bytes
    the s-expression lexer treats as delimiters; every OCaml string
    round-trips. *)

val version : int
(** Current protocol version (1). *)

type request =
  | Hello of { version : int }
  | Create_session of {
      id : string;
      scenario : string;
      max_horizon : int option;
      alg : string option;
          (** requested solver ([a], [b], [det2d], [homog]); [None]
              lets the daemon pick from the scenario's cost structure.
              Added within protocol version 1: old clients omit the
              field and get the original auto-pick. *)
    }
      (** Create the session, or {e attach} to an existing one with the
          same spec (the reply carries how many slots it has already
          processed — the crash/resume re-entry point). *)
  | Feed of { id : string; seq : int; loads : float array }
      (** Deliver the loads for slots [seq, seq + n); [seq] must not
          exceed the session's processed-slot count, and any overlap
          with already-processed slots is answered with the decisions
          rebuilt from the session's power events (feeding is
          idempotent). *)
  | Query_snapshot of { id : string }  (** the session's resumable state *)
  | Stats                              (** daemon-wide counters and latency *)
  | Metrics
      (** the full telemetry scrape in Prometheus text format, the same
          body the [--metrics-port] HTTP listener serves.  Added within
          protocol version 1: old daemons answer [bad-request], old
          clients simply never send it. *)
  | Close of { id : string }
  | Shutdown

type error_code =
  | Bad_request           (** unparseable or out-of-protocol message *)
  | Unsupported_version
  | Unknown_scenario
  | Unknown_session
  | Session_exists        (** same id, different spec *)
  | Too_many_sessions
  | Bad_seq               (** a gap: [seq] is past the processed count *)
  | Bad_volume
  | Over_capacity
  | Horizon_exhausted
  | Injected              (** a fault-injection site fired; retry the frame *)
  | Internal

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option

type stats = {
  accepts : int;
  sessions : int;
  requests : int;
  decisions : int;
  batches : int;
  p50_us : float;
  p99_us : float;
}

type response =
  | Welcome of { version : int }
  | Session of { id : string; alg : string; types : int; fed : int }
  | Decisions of { id : string; seq : int; configs : Model.Config.t array }
  | Snapshot_state of { id : string; state : Util.Sexp.t }
  | Stats_reply of stats
  | Metrics_reply of { body : string }
      (** Prometheus text scrape (see {!Obs.Metrics_export.to_prometheus}) *)
  | Closed of { id : string }
  | Bye                   (** acknowledges [Shutdown] *)
  | Error of { code : error_code; msg : string; fed : int option }
      (** [fed], when present, is the session's processed-slot count —
          enough for a client to resynchronise after a partial feed. *)

val quote : string -> string
(** Percent-encode a string into a single safe atom (never empty). *)

val unquote : string -> string
(** Inverse of {!quote}; malformed escapes decode to ['?']. *)

val valid_id : string -> bool
(** Session ids: 1-64 chars from [A-Za-z0-9_.:-] — readable on the
    wire and in checkpoint files without quoting. *)

val request_to_sexp : request -> Util.Sexp.t
val request_of_sexp : Util.Sexp.t -> (request, string) result
val response_to_sexp : response -> Util.Sexp.t
val response_of_sexp : Util.Sexp.t -> (response, string) result

(** Client side of the telemetry plane — scrape, digest, render.

    {!scrape} performs a one-shot HTTP/1.0 GET against a daemon's
    [--metrics-port] listener; {!parse} turns the Prometheus body into
    samples; {!row_of} digests them into the operator's row (sessions,
    decisions, latency quantiles reconstructed from the scraped bucket
    series, shadow-oracle regret); {!render} / {!to_json} print it.
    The [rightsizer monitor] subcommand drives this in a loop, passing
    the previous row so decisions/s can be derived from two scrapes. *)

type snap = {
  at : float;  (** client wall clock at scrape time *)
  samples : Obs.Metrics_export.sample list;
}

val scrape : port:int -> (string, string) result
(** Fetch the raw scrape body from [127.0.0.1:port]. *)

val parse : string -> (snap, string) result

val value : snap -> string -> float option
(** First label-free sample with the given name. *)

val quantile : snap -> string -> float -> float option
(** [quantile snap name q]: interpolated quantile reconstructed from
    the [name_bucket] cumulative series, clamped by [name_min] /
    [name_max] when present; [None] when the histogram is absent or
    empty. *)

type row = {
  sessions : float;
  connections : float;
  requests : float;
  decisions : float;
  batches : float;
  p50_req_us : float option;
  p99_req_us : float option;
  p50_batch_us : float option;
  p99_batch_us : float option;
  regret_ratio : float option;
  regret_abs : float option;
  audit_lag : float option;
  audit_runs : float;
  audit_failures : float;  (** audited sessions whose replay raised *)
  minor_words : float option;  (** the daemon's minor-heap words since start *)
  uptime_s : float;
  at : float;
}

val row_of : snap -> row

val rate : ?prev:row -> row -> float option
(** Decisions per second between [prev] and this row; [None] without a
    usable previous row. *)

val words_per_decision : ?prev:row -> row -> float option
(** Minor-heap words the daemon allocated per decision between [prev]
    and this row; [None] without a usable previous row. *)

val render : ?prev:row -> row -> string
(** Multi-line human table. *)

val to_json : ?prev:row -> row -> string
(** Single-line JSON object; absent metrics are [null]. *)

(** The telemetry event vocabulary shared by every sink and exporter.

    Events are immutable records produced by {!Span} (timed regions and
    instants) and consumed by whichever {!Sink} is installed.  Timestamps
    are wall-clock microseconds since an arbitrary per-process epoch
    ({!Span.now_us}); [tid] is the emitting domain's id, so traces of a
    domain pool's jobs (the daemon's session steps) separate into
    per-domain tracks. *)

type kind =
  | Begin    (** a span opened *)
  | End      (** the most recent [Begin] with the same name/tid closed *)
  | Instant  (** a point event (e.g. a stepper power-up) *)

type t = {
  kind : kind;
  name : string;
  ts_us : float;  (** microseconds since the process epoch *)
  tid : int;      (** emitting domain id *)
  args : (string * string) list;  (** free-form annotations *)
}

val make :
  ?args:(string * string) list -> kind -> name:string -> ts_us:float -> tid:int -> t

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal (quotes,
    backslashes, control characters). *)

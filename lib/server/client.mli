(** Synchronous wire-protocol client.

    One framed connection to a daemon: {!connect} dials the target,
    {!hello} pins the protocol version, {!send}/{!recv} move whole
    requests and responses through the {!Codec} framing (kept separate
    so callers can pipeline several in-flight requests on one
    connection), and {!request} is the one-shot pair.  The scenario
    runner is built on this module; the end-to-end benchmark uses it
    for its control connection, and its open-loop load connections
    frame with the same {!Codec} and {!Protocol}.

    All failures — socket errors, a closed connection, malformed
    frames — surface as [Error msg]; the connection should then be
    {!close}d and, if the daemon survived (a dropped connection leaves
    its sessions intact), re-{!connect}ed. *)

type target = Unix_path of string | Tcp of int  (** TCP is loopback *)

type t

val connect : target -> (t, string) result
(** Dial the daemon (no handshake yet).  [Tcp] sets [TCP_NODELAY]. *)

val hello : t -> (unit, string) result
(** Send [(hello (version 1))] and check for [welcome]. *)

val send : t -> Protocol.request -> (unit, string) result
(** Write one framed request (complete; handles short writes). *)

val recv : t -> (Protocol.response, string) result
(** Block for the next framed response. *)

val request : t -> Protocol.request -> (Protocol.response, string) result
(** {!send} then {!recv}. *)

val close : t -> unit
(** Close the socket (idempotent, never raises). *)

(** Length-prefixed framing for the wire protocol.

    A frame is

    {v <decimal payload length> SP <payload bytes> LF v}

    where the payload is one rendered s-expression ({!Protocol}).  The
    ASCII length prefix plus the newline terminator keep the stream
    debuggable with [nc -U] while still letting the reader allocate
    exactly once per frame.

    The decoder is incremental: feed it whatever byte chunks arrive on
    the socket and pull complete frames out as they materialise.  Its
    input lives in one byte buffer of 4 KiB to start with, parsed in
    place; consumed bytes are dropped by moving the unconsumed tail to
    the front, and the buffer doubles only when a frame and the read
    that completes it do not fit, so a long-lived decoder reaches a
    steady size and allocates only the payload trees it returns.  It is
    also defensive — the declared length is validated against
    [max_frame_bytes] {e before} any buffer is sized from it, so a
    corrupt or hostile length prefix cannot trigger an unbounded
    allocation (the same guard {!Util.Snapshot.load} applies to
    checkpoint files), and a malformed prefix or a missing terminator
    is a typed [Error], never an exception. *)

val default_max_frame_bytes : int
(** 16 MiB — generous for any protocol message, tiny next to memory. *)

val encode : Util.Sexp.t -> string
(** Render a payload as one complete frame: {!encode_to} into a buffer
    of its own. *)

type out
(** A growable output buffer that frames are rendered into and written
    out from.  It keeps its size between frames. *)

val out : unit -> out
(** An empty buffer of 4 KiB. *)

val encode_to : out -> Util.Sexp.t -> unit
(** Append one complete frame: prefix, payload and terminator are
    written in place, growing the buffer only when the frame does not
    fit. *)

val out_bytes : out -> bytes
(** The buffer's storage: its first {!out_length} bytes are the frames
    appended since the last {!out_clear}.  Valid until the next
    {!encode_to}. *)

val out_length : out -> int
val out_clear : out -> unit

type decoder

val decoder : ?max_frame_bytes:int -> unit -> decoder

val feed : decoder -> bytes -> int -> unit
(** [feed d buf n] appends the first [n] bytes of [buf] to the pending
    input.  Raises [Invalid_argument] if [n] is out of range. *)

val feed_string : decoder -> string -> unit

val next : decoder -> (Util.Sexp.t option, string) result
(** Extract the next complete frame: [Ok (Some payload)] when one is
    ready, [Ok None] when more bytes are needed, [Error] when the
    stream is unrecoverably malformed (bad length prefix, frame above
    the size guard, missing terminator, unparseable payload).  After an
    [Error] the decoder is poisoned: every subsequent {!next} returns
    the same error, and the connection should be dropped. *)

val pending_bytes : decoder -> int
(** Bytes buffered but not yet consumed (diagnostics). *)

val buffer_bytes : decoder -> int
(** Size of the decoder's input buffer (diagnostics). *)

(** Minimal s-expressions — the surface syntax for instance files.

    Atoms are bare tokens (no quoting needed for the numeric/identifier
    atoms the instance format uses); lists are parenthesised.  Comments
    run from [;] to end of line. *)

type t = Atom of string | List of t list

val parse : string -> (t, string) result
(** Parse exactly one s-expression (surrounding whitespace allowed);
    [Error msg] carries a human-readable position. *)

val parse_sub : bytes -> pos:int -> len:int -> (t, string) result
(** [parse_sub b ~pos ~len] is {!parse} of the [len] bytes of [b] from
    [pos], read in place: only the returned tree is allocated, and the
    offsets in an error message count from [pos].  Raises
    [Invalid_argument] when the range is not within [b]. *)

val parse_many : string -> (t list, string) result
(** Parse a sequence of s-expressions. *)

val to_string : t -> string
(** Render; atoms are emitted verbatim. *)

val rendered_length : t -> int
(** [String.length (to_string t)], without rendering. *)

val write : t -> bytes -> int -> int
(** [write t b off] renders [t] into [b] from [off], as {!to_string}
    would, and returns the offset just past it.  [b] must hold
    [rendered_length t] bytes from [off]. *)

val atom : t -> string option
(** Atom payload, if any. *)

val assoc : string -> t list -> t list option
(** [assoc key items] finds [(key v1 v2 ...)] among [items] and returns
    its arguments. *)

val float_atom : t -> float option
val int_atom : t -> int option

let default_max_frame_bytes = 16 * 1024 * 1024

(* --- encoding ----------------------------------------------------------

   A frame is rendered straight into a growable output buffer: the
   payload's length first (so the prefix is written before the body),
   then the body itself, then the terminator.  Nothing is allocated once
   the buffer has grown to the largest frame, and the buffer is written
   to a socket from where it lies. *)

type out = { mutable obuf : Bytes.t; mutable olen : int }

let out () = { obuf = Bytes.create 4096; olen = 0 }
let out_bytes o = o.obuf
let out_length o = o.olen
let out_clear o = o.olen <- 0

let rec decimal_digits n = if n < 10 then 1 else 1 + decimal_digits (n / 10)

let encode_to o payload =
  let n = Util.Sexp.rendered_length payload in
  let k = decimal_digits n in
  let need = o.olen + k + n + 2 in
  if need > Bytes.length o.obuf then begin
    let fresh = Bytes.create (max need (2 * Bytes.length o.obuf)) in
    Bytes.blit o.obuf 0 fresh 0 o.olen;
    o.obuf <- fresh
  end;
  let b = o.obuf in
  let v = ref n in
  for i = o.olen + k - 1 downto o.olen do
    Bytes.set b i (Char.unsafe_chr (48 + (!v mod 10)));
    v := !v / 10
  done;
  Bytes.set b (o.olen + k) ' ';
  let stop = Util.Sexp.write payload b (o.olen + k + 1) in
  Bytes.set b stop '\n';
  o.olen <- stop + 1

(* An empty buffer grows to exactly one frame, which then is the string. *)
let encode payload =
  let o = { obuf = Bytes.empty; olen = 0 } in
  encode_to o payload;
  Bytes.unsafe_to_string o.obuf

(* --- decoding ----------------------------------------------------------

   The pending input lives in one [Bytes] buffer, in [start, stop).
   When all of it is consumed the window returns to offset 0 for free;
   otherwise a feed that would run past the end first moves the
   unconsumed tail to offset 0, and the buffer doubles only when the
   tail and the new bytes together do not fit: when one frame, plus the
   read that carries its end, is larger than the buffer. *)

type decoder = {
  mutable buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable stop : int;  (* end of the buffered input *)
  mutable poisoned : string option;
  max_frame_bytes : int;
}

let initial_bytes = 4096

let decoder ?(max_frame_bytes = default_max_frame_bytes) () =
  { buf = Bytes.create initial_bytes; start = 0; stop = 0; poisoned = None; max_frame_bytes }

(* Room for [n] more bytes at [stop]. *)
let reserve d n =
  if d.stop + n > Bytes.length d.buf then begin
    let pending = d.stop - d.start in
    if pending + n <= Bytes.length d.buf then Bytes.blit d.buf d.start d.buf 0 pending
    else begin
      let cap = ref (Bytes.length d.buf) in
      while !cap < pending + n do
        cap := 2 * !cap
      done;
      let fresh = Bytes.create !cap in
      Bytes.blit d.buf d.start fresh 0 pending;
      d.buf <- fresh
    end;
    d.start <- 0;
    d.stop <- pending
  end

let feed d buf n =
  if n < 0 || n > Bytes.length buf then invalid_arg "Codec.feed";
  reserve d n;
  Bytes.blit buf 0 d.buf d.stop n;
  d.stop <- d.stop + n

let feed_string d s =
  let n = String.length s in
  reserve d n;
  Bytes.blit_string s 0 d.buf d.stop n;
  d.stop <- d.stop + n

let pending_bytes d = d.stop - d.start
let buffer_bytes d = Bytes.length d.buf

let poison d msg =
  d.poisoned <- Some msg;
  Error msg

(* The longest believable length prefix: 8 digits covers anything under
   the 16 MiB default and then some; a longer digit run is itself
   evidence of a corrupt prefix. *)
let max_prefix_digits = 12

(* The offset of the space that ends the length prefix starting at [i];
   [-1] when the prefix is too long, [-2] when it is not all here yet. *)
let rec scan_sp d i =
  if i >= d.stop then -2
  else if Bytes.unsafe_get d.buf i = ' ' then i
  else if i - d.start >= max_prefix_digits then -1
  else scan_sp d (i + 1)

(* The decimal value of [buf.[i .. sp)], or [-1] unless all digits. *)
let rec digits_value b i sp acc =
  if i = sp then acc
  else
    match Bytes.unsafe_get b i with
    | '0' .. '9' as c -> digits_value b (i + 1) sp ((10 * acc) + Char.code c - 48)
    | _ -> -1

let next d =
  match d.poisoned with
  | Some msg -> Error msg
  | None -> (
      match scan_sp d d.start with
      | -2 -> Ok None (* prefix still incomplete *)
      | -1 -> poison d "frame length prefix too long (corrupt stream)"
      | sp -> (
          match if sp > d.start then digits_value d.buf d.start sp 0 else -1 with
          | -1 ->
              poison d
                (Printf.sprintf "bad frame length prefix %S"
                   (Bytes.sub_string d.buf d.start (sp - d.start)))
          | n when n > d.max_frame_bytes ->
              (* Checked before the buffer grows for [n]. *)
              poison d
                (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
                   d.max_frame_bytes)
          | n ->
              let frame_end = sp + 1 + n in
              if d.stop < frame_end + 1 then Ok None (* payload + LF not yet here *)
              else if Bytes.unsafe_get d.buf frame_end <> '\n' then
                poison d "missing frame terminator (corrupt stream)"
              else begin
                let parsed = Util.Sexp.parse_sub d.buf ~pos:(sp + 1) ~len:n in
                if frame_end + 1 = d.stop then begin
                  d.start <- 0;
                  d.stop <- 0
                end
                else d.start <- frame_end + 1;
                match parsed with
                | Ok payload -> Ok (Some payload)
                | Error m -> poison d (Printf.sprintf "unparseable frame payload: %s" m)
              end))

(* Values live in fixed-size unboxed chunks, so the store grows without
   copying what it already holds: value [q] is cell [q land chunk_mask]
   of chunk [q lsr chunk_bits]. *)
let chunk_bits = 13
let chunk_len = 1 lsl chunk_bits
let chunk_mask = chunk_len - 1

type t = {
  mutable chunks : Plane.t array;
  mutable used : int;  (* values stored *)
  mutable index : Bytes.t;  (* per line, its run's code as a little-endian base-128 varint *)
  mutable index_used : int;
  mutable layers : int array;  (* per layer: size, line length, first value, first index byte *)
  mutable count : int;  (* layers stored *)
}

let fields = 4

let create () =
  { chunks = [||];
    used = 0;
    index = Bytes.create 256;
    index_used = 0;
    layers = Array.make (16 * fields) 0;
    count = 0 }

(* A run of [len] cells from cell [start] of a line of [line] cells is
   [start * (line + 1) + len]; an all-+infinity line is 0.  The codes of
   lines of up to 11 cells take one byte, up to 127 cells two. *)
let put_code s code =
  if s.index_used + 10 > Bytes.length s.index then begin
    let bigger = Bytes.create (2 * Bytes.length s.index) in
    Bytes.blit s.index 0 bigger 0 s.index_used;
    s.index <- bigger
  end;
  let v = ref code in
  while !v >= 0x80 do
    Bytes.unsafe_set s.index s.index_used (Char.unsafe_chr (!v land 0x7f lor 0x80));
    s.index_used <- s.index_used + 1;
    v := !v lsr 7
  done;
  Bytes.unsafe_set s.index s.index_used (Char.unsafe_chr !v);
  s.index_used <- s.index_used + 1

let[@inline] value s q =
  Bigarray.Array1.unsafe_get (Array.unsafe_get s.chunks (q lsr chunk_bits)) (q land chunk_mask)

let push_run s (p : Plane.t) ~off ~len =
  while s.used + len > Array.length s.chunks * chunk_len do
    s.chunks <- Array.append s.chunks [| Plane.create chunk_len |]
  done;
  for c = 0 to len - 1 do
    let q = s.used + c in
    Bigarray.Array1.unsafe_set
      (Array.unsafe_get s.chunks (q lsr chunk_bits))
      (q land chunk_mask)
      (Bigarray.Array1.unsafe_get p (off + c))
  done;
  s.used <- s.used + len

let append s (p : Plane.t) ~size ~line =
  if line < 1 || size mod line <> 0 || size > Plane.length p then
    invalid_arg "Layer_store.append: layer shape does not fit the plane";
  if (s.count + 1) * fields > Array.length s.layers then begin
    let bigger = Array.make (2 * Array.length s.layers) 0 in
    Array.blit s.layers 0 bigger 0 (s.count * fields);
    s.layers <- bigger
  end;
  let m = s.count * fields in
  s.layers.(m) <- size;
  s.layers.(m + 1) <- line;
  s.layers.(m + 2) <- s.used;
  s.layers.(m + 3) <- s.index_used;
  let first = s.used in
  for k = 0 to (size / line) - 1 do
    let o = k * line in
    let a = ref 0 in
    while !a < line && Bigarray.Array1.unsafe_get p (o + !a) = infinity do
      incr a
    done;
    if !a = line then put_code s 0
    else begin
      let b = ref (line - 1) in
      while Bigarray.Array1.unsafe_get p (o + !b) = infinity do
        decr b
      done;
      let len = !b - !a + 1 in
      put_code s ((!a * (line + 1)) + len);
      push_run s p ~off:(o + !a) ~len
    end
  done;
  s.count <- s.count + 1;
  s.used - first

let size s t =
  if t < 0 || t >= s.count then invalid_arg "Layer_store: no such layer";
  s.layers.(t * fields)

(* [f ~dst ~pos ~len] per non-empty line of layer [t]: its run is the
   values from [pos] on, for the layer's cells [dst ..]. *)
let iter_runs s t f =
  let size = size s t in
  let m = t * fields in
  let line = s.layers.(m + 1) in
  let pos = ref s.layers.(m + 2) and at = ref s.layers.(m + 3) in
  for k = 0 to (size / line) - 1 do
    let code = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      let byte = Char.code (Bytes.unsafe_get s.index !at) in
      incr at;
      code := !code lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      more := byte >= 0x80
    done;
    if !code > 0 then begin
      let start = !code / (line + 1) in
      let len = !code - (start * (line + 1)) in
      f ~dst:((k * line) + start) ~pos:!pos ~len;
      pos := !pos + len
    end
  done

let finite s t cells values =
  let size = size s t in
  if Array.length cells < size || Array.length values < size then
    invalid_arg "Layer_store.finite: arrays too small";
  let m = ref 0 in
  iter_runs s t (fun ~dst ~pos ~len ->
      for c = 0 to len - 1 do
        let v = value s (pos + c) in
        if v < infinity then begin
          Array.unsafe_set cells !m (dst + c);
          Array.unsafe_set values !m v;
          incr m
        end
      done);
  !m

let to_array s t =
  let a = Array.make (size s t) infinity in
  iter_runs s t (fun ~dst ~pos ~len ->
      for c = 0 to len - 1 do
        Array.unsafe_set a (dst + c) (value s (pos + c))
      done);
  a

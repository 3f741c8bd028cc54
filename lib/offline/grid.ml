type t = { dims : int array array; strides : int array; size : int }

let compute_strides dims =
  let d = Array.length dims in
  let strides = Array.make d 1 in
  for j = d - 2 downto 0 do
    strides.(j) <- strides.(j + 1) * Array.length dims.(j + 1)
  done;
  strides

let c_builds = Obs.Counter.make "grid.builds"
let c_states = Obs.Counter.make "grid.states"

let make dims =
  if Array.length dims = 0 then invalid_arg "Grid.make: no axes";
  Array.iter
    (fun axis ->
      let n = Array.length axis in
      if n = 0 || axis.(0) <> 0 then invalid_arg "Grid.make: axis must start at 0";
      for i = 0 to n - 2 do
        if axis.(i) >= axis.(i + 1) then
          invalid_arg "Grid.make: axis must be strictly increasing"
      done)
    dims;
  let dims = Array.map Array.copy dims in
  let size = Array.fold_left (fun acc axis -> acc * Array.length axis) 1 dims in
  Obs.Counter.incr c_builds;
  Obs.Counter.add c_states size;
  { dims; strides = compute_strides dims; size }

let dense m = make (Array.map (fun mj -> Array.init (mj + 1) Fun.id) m)

(* M_j^gamma = {0, m_j} with |_gamma^k_| and |gamma^k| for every k;
   consecutive ratios never exceed gamma (paper, Section 4.2). *)
let power_axis ~gamma mj =
  if mj = 0 then [| 0 |]
  else begin
    let values = ref [ 0; 1; mj ] in
    let k = ref 1 in
    let continue = ref true in
    while !continue do
      let p = gamma ** float_of_int !k in
      let lo = int_of_float (Float.floor p) in
      let hi = int_of_float (Float.ceil p) in
      if lo > mj then continue := false
      else begin
        values := lo :: !values;
        if hi <= mj then values := hi :: !values;
        incr k;
        (* Guard against gamma so close to 1 that powers stall. *)
        if !k > 64 * (1 + int_of_float (log (float_of_int (max 2 mj)) /. log gamma +. 1.)) then
          continue := false
      end
    done;
    let sorted = List.sort_uniq compare !values in
    Array.of_list (List.filter (fun v -> v >= 0 && v <= mj) sorted)
  end

let power ~gamma m =
  if gamma <= 1. then invalid_arg "Grid.power: gamma must be > 1";
  make (Array.map (power_axis ~gamma) m)

let equal a b = a.dims = b.dims

let axis_values g j = Array.copy g.dims.(j)
let dim g = Array.length g.dims
let axis_length g j = Array.length g.dims.(j)
let size g = g.size

let next_line g pos =
  let j = ref (dim g - 2) in
  while !j >= 0 && pos.(!j) + 1 = Array.length g.dims.(!j) do
    pos.(!j) <- 0;
    decr j
  done;
  if !j >= 0 then pos.(!j) <- pos.(!j) + 1

let config_into g idx x =
  let d = dim g in
  if Array.length x <> d then invalid_arg "Grid.config_into: dimension mismatch";
  let rest = ref idx in
  for j = 0 to d - 1 do
    let pos = !rest / g.strides.(j) in
    rest := !rest mod g.strides.(j);
    x.(j) <- g.dims.(j).(pos)
  done

let config_at g idx =
  let x = Array.make (dim g) 0 in
  config_into g idx x;
  x

let find_axis axis v =
  (* Binary search for an exact value. *)
  let lo = ref 0 and hi = ref (Array.length axis - 1) in
  let found = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if axis.(mid) = v then begin
      found := Some mid;
      lo := !hi + 1
    end
    else if axis.(mid) < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let index_of g x =
  let d = dim g in
  if Array.length x <> d then invalid_arg "Grid.index_of: dimension mismatch";
  let rec go j acc =
    if j = d then Some acc
    else
      match find_axis g.dims.(j) x.(j) with
      | None -> None
      | Some pos -> go (j + 1) (acc + (pos * g.strides.(j)))
  in
  go 0 0

let iter g f =
  let d = dim g in
  let x = Array.make d 0 in
  for idx = 0 to g.size - 1 do
    let rest = ref idx in
    for j = 0 to d - 1 do
      let pos = !rest / g.strides.(j) in
      rest := !rest mod g.strides.(j);
      x.(j) <- g.dims.(j).(pos)
    done;
    f idx x
  done

let round_up g j v =
  let axis = g.dims.(j) in
  let n = Array.length axis in
  if v > axis.(n - 1) then None
  else begin
    (* Smallest index with axis value >= v. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if axis.(mid) >= v then hi := mid else lo := mid + 1
    done;
    Some axis.(!lo)
  end

let round_down g j v =
  if v < 0 then invalid_arg "Grid.round_down: negative value";
  let axis = g.dims.(j) in
  let n = Array.length axis in
  (* Largest index with axis value <= v; axis.(0) = 0 qualifies. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if axis.(mid) <= v then lo := mid else hi := mid - 1
  done;
  axis.(!lo)

let max_value g j =
  let axis = g.dims.(j) in
  axis.(Array.length axis - 1)

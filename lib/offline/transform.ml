(* The passes below run over [Plane.t] segments in place: the DP ramps
   each new layer in a reused dense plane, and the cross-grid transform
   ping-pongs through two reusable scratch planes, so a layer step
   allocates no float storage.

   The last axis has stride 1, so its lines are contiguous both in the
   plane segment and in an [ops] row, whose add is fused into that
   final pass while the line is still cache-hot. *)

(* Lines along axis [j] can be addressed directly: line [k] (of
   [size / lengths.(j)] total) starts at [(k / stride) * block + k mod
   stride], so the cross-grid pass pairs source and destination lines
   without materialising (offset, stride) lists. *)
let line_offset ~block ~stride k = ((k / stride) * block) + (k mod stride)

(* Row-major stride of axis [j]: the product of the later axes' lengths. *)
let stride_of lengths j =
  let stride = ref 1 in
  for k = j + 1 to Array.length lengths - 1 do
    stride := !stride * lengths.(k)
  done;
  !stride

(* In-place pass along one axis over a block of rows: row [i] holds
   the [width] cells from [base + i * stride], one per line of the
   block, and every line gets
   [p(i) <- min_y p(y) + beta * (values(i) - values(y))^+].  Row by row,
   the climb is computed once per row and the inner loops run over
   contiguous cells; each line still sees its own forward climb, then
   its backward descent, so the bits are a per-line pass's.  Below the
   block's first row with a finite cell every climb stays +infinity, so
   the climb starts there.  With [ops] (the stride-1 last axis, so
   [width = 1]), the finished line gets the row [ops] from [rank]. *)
let rec all_inf (p : Plane.t) c width =
  width = 0 || (Bigarray.Array1.unsafe_get p c = infinity && all_inf p (c + 1) (width - 1))

let ramp_rows ~beta ~values ?ops (p : Plane.t) ~base ~stride ~width ~rank =
  let n = Array.length values in
  let first = ref 0 in
  while !first < n - 1 && all_inf p (base + (!first * stride)) width do
    incr first
  done;
  (* Forward: reach i from below, paying beta per unit climbed. *)
  for i = !first + 1 to n - 1 do
    let climb = beta *. float_of_int (values.(i) - values.(i - 1)) in
    let row = base + (i * stride) in
    for c = row to row + width - 1 do
      let prev = Bigarray.Array1.unsafe_get p (c - stride) in
      if prev +. climb < Bigarray.Array1.unsafe_get p c then
        Bigarray.Array1.unsafe_set p c (prev +. climb)
    done
  done;
  (* Backward: reach i from above for free. *)
  for i = n - 2 downto 0 do
    let row = base + (i * stride) in
    for c = row to row + width - 1 do
      let nxt = Bigarray.Array1.unsafe_get p (c + stride) in
      if nxt < Bigarray.Array1.unsafe_get p c then Bigarray.Array1.unsafe_set p c nxt
    done
  done;
  match ops with
  | None -> ()
  | Some ops ->
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set p (base + i)
          (Bigarray.Array1.unsafe_get p (base + i) +. Array.unsafe_get ops (rank + i))
      done

(* 1-D pass across two sorted axes, from the [src] line at [soff] to the
   [dst] line at [doff]:
   [dst(i) <- min_y src(y) + beta * (dst_values(i) - src_values(y))^+]
   in [O(|src| + |dst|)].  The [dst] slots of the line must be
   pre-initialised to [infinity]. *)
let ramp_between_strided_p ~beta ~src_values ~(src : Plane.t) ~soff ~dst_values
    ~(dst : Plane.t) ~doff ~stride =
  let ns = Array.length src_values and nd = Array.length dst_values in
  (* From below: dst(i) = beta * vd_i + min_{vs_y <= vd_i} (src_y - beta * vs_y). *)
  let y = ref 0 and best = ref infinity in
  for i = 0 to nd - 1 do
    while !y < ns && src_values.(!y) <= dst_values.(i) do
      let candidate =
        Bigarray.Array1.unsafe_get src (soff + (!y * stride))
        -. (beta *. float_of_int src_values.(!y))
      in
      if candidate < !best then best := candidate;
      incr y
    done;
    if !best < infinity then
      Bigarray.Array1.unsafe_set dst
        (doff + (i * stride))
        (!best +. (beta *. float_of_int dst_values.(i)))
  done;
  (* From above (free descent): suffix minimum of src over vs_y >= vd_i. *)
  let y = ref (ns - 1) and best = ref infinity in
  for i = nd - 1 downto 0 do
    while !y >= 0 && src_values.(!y) >= dst_values.(i) do
      let v = Bigarray.Array1.unsafe_get src (soff + (!y * stride)) in
      if v < !best then best := v;
      decr y
    done;
    let cur = doff + (i * stride) in
    if !best < Bigarray.Array1.unsafe_get dst cur then
      Bigarray.Array1.unsafe_set dst cur !best
  done

let check_segment msg (p : Plane.t) ~off ~size =
  if off < 0 || off + size > Plane.length p then invalid_arg msg

let check_ops msg ops ~size =
  match ops with Some ops when Array.length ops <> size -> invalid_arg msg | _ -> ()

let ramp_grid_plane ?ops ~grid ~betas (p : Plane.t) ~off =
  let d = Grid.dim grid in
  if Array.length betas <> d then invalid_arg "Transform.ramp_grid_plane: betas mismatch";
  let size = Grid.size grid in
  check_segment "Transform.ramp_grid_plane: segment out of range" p ~off ~size;
  check_ops "Transform.ramp_grid_plane: ops size mismatch" ops ~size;
  let stride = ref size in
  for j = 0 to d - 1 do
    let values = Grid.axis grid j in
    let n = Array.length values in
    let block = !stride in
    stride := block / n;
    let stride = !stride and beta = betas.(j) in
    let ops = if j = d - 1 then ops else None in
    if stride = 1 then
      for k = 0 to (size / n) - 1 do
        ramp_rows ~beta ~values ?ops p ~base:(off + (k * n)) ~stride ~width:1 ~rank:(k * n)
      done
    else
      for b = 0 to (size / block) - 1 do
        ramp_rows ~beta ~values p ~base:(off + (b * block)) ~stride ~width:stride ~rank:0
      done
  done

let ramp_across_plane ?ops ~src_grid ~dst_grid ~betas
    ~(src : Plane.t) ~soff ~tmp:((wa, wb) : Plane.t * Plane.t) (dst : Plane.t) ~doff =
  let d = Grid.dim src_grid in
  if Grid.dim dst_grid <> d then invalid_arg "Transform.ramp_across_plane: dim mismatch";
  if Array.length betas <> d then
    invalid_arg "Transform.ramp_across_plane: betas mismatch";
  check_segment "Transform.ramp_across_plane: src segment out of range" src ~off:soff
    ~size:(Grid.size src_grid);
  check_segment "Transform.ramp_across_plane: dst segment out of range" dst ~off:doff
    ~size:(Grid.size dst_grid);
  check_ops "Transform.ramp_across_plane: ops size mismatch" ops ~size:(Grid.size dst_grid);
  (* Replace one axis at a time; [lengths] tracks the mixed shape. *)
  let lengths = Array.init d (Grid.axis_length src_grid) in
  let cur = ref src and cur_off = ref soff and cur_size = ref (Grid.size src_grid) in
  for j = 0 to d - 1 do
    let src_values = Grid.axis_values src_grid j in
    let dst_values = Grid.axis_values dst_grid j in
    let ns = lengths.(j) and nd = Array.length dst_values in
    let stride = stride_of lengths j in
    let src_block = stride * ns and dst_block = stride * nd in
    let new_size = !cur_size / ns * nd in
    let last = j = d - 1 in
    (* Final axis writes straight into the destination segment; earlier
       axes ping-pong between the two scratch planes. *)
    let target, target_off =
      if last then (dst, doff) else if !cur == wa then (wb, 0) else (wa, 0)
    in
    if (not last) && new_size > Plane.length target then
      invalid_arg "Transform.ramp_across_plane: scratch plane too small";
    Plane.fill_range target ~off:target_off ~len:new_size infinity;
    let n_lines = !cur_size / ns in
    let beta = betas.(j) in
    let src_p = !cur and src_off = !cur_off in
    (* Matching src/dst lines share a line index: only axis [j]'s length
       changed, so the other-axes enumeration (and the stride) agree. *)
    for k = 0 to n_lines - 1 do
      let soff = src_off + line_offset ~block:src_block ~stride k in
      let doff = target_off + line_offset ~block:dst_block ~stride k in
      ramp_between_strided_p ~beta ~src_values ~src:src_p ~soff ~dst_values ~dst:target
        ~doff ~stride;
      match ops with
      | Some ops when last ->
          (* stride = 1 here: the finished line is ranks k*nd onward. *)
          for i = 0 to nd - 1 do
            Bigarray.Array1.unsafe_set target (doff + i)
              (Bigarray.Array1.unsafe_get target (doff + i) +. Array.unsafe_get ops ((k * nd) + i))
          done
      | Some _ | None -> ()
    done;
    lengths.(j) <- nd;
    cur := target;
    cur_off := target_off;
    cur_size := new_size
  done

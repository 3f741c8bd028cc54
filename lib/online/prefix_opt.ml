type step = {
  last : Model.Config.t;
  last_hi : Model.Config.t;
  prefix_cost : float;
}

type t = {
  mutable inst : Model.Instance.t;  (* swapped by [rebind] on horizon growth *)
  grid : Offline.Grid.t;
  betas : float array;
  ops : float array;
      (* per grid rank during a step: g_t, overwritten cell by cell by U,
         the power-up-only ramp of the step's A (see [step]) *)
  arrival : Offline.Plane.t;  (* canonical; meaningful only when [clock > 0] *)
  mutable clock : int;
  axes : int array array;  (* the grid's axis values *)
  strides : int array;  (* row-major stride per axis *)
  climbs : float array;  (* climbs.(i): the last axis's power-up cost from value i-1 to i *)
  pred_off : int array;  (* the current line's earlier-axis predecessors: rank distance, *)
  pred_climb : float array;  (* and power-up cost from each *)
  bound : Model.Cost.bound;
}

let create ?grid inst =
  let inst = Model.Instance.fold_switching inst in
  let grid =
    match grid with
    | Some g ->
        if Offline.Grid.dim g <> Model.Instance.num_types inst then
          invalid_arg "Prefix_opt.create: grid dimension mismatch";
        g
    | None -> Offline.Grid.dense (Model.Instance.counts inst)
  in
  let betas =
    Array.map (fun st -> st.Model.Server_type.switching_cost) inst.Model.Instance.types
  in
  let d = Offline.Grid.dim grid in
  let axes = Array.init d (Offline.Grid.axis_values grid) in
  let strides = Array.make d 1 in
  for j = d - 2 downto 0 do
    strides.(j) <- strides.(j + 1) * Array.length axes.(j + 1)
  done;
  let last = axes.(d - 1) in
  let climbs =
    Array.mapi
      (fun i v -> if i = 0 then 0. else betas.(d - 1) *. float_of_int (v - last.(i - 1)))
      last
  in
  { inst;
    grid;
    betas;
    ops = Array.create_float (Offline.Grid.size grid);
    arrival = Offline.Plane.create (Offline.Grid.size grid);
    clock = 0;
    axes;
    strides;
    climbs;
    pred_off = Array.make d 0;
    pred_climb = Array.make d 0.;
    bound = { Model.Cost.icept = 0.; slope = 0. } }

let time e = e.clock

let rebind e inst =
  let inst = Model.Instance.fold_switching inst in
  if Model.Instance.num_types inst <> Offline.Grid.dim e.grid then
    invalid_arg "Prefix_opt.rebind: type-count mismatch";
  if Model.Instance.counts inst <> Model.Instance.counts e.inst then
    invalid_arg "Prefix_opt.rebind: fleet sizes changed";
  if Model.Instance.horizon inst < e.clock then
    invalid_arg "Prefix_opt.rebind: horizon shorter than slots already processed";
  (* Nothing derived from the old instance outlives a step: the
     operating-cost row is refilled from [e.inst] every slot. *)
  e.inst <- inst

let save e =
  (* The codec predates the plane engine: the arrival layer still
     travels as a plain float-array field (empty before the first
     step), so snapshots stay readable across versions. *)
  let arrival =
    if e.clock = 0 then [||]
    else Offline.Plane.to_array e.arrival ~off:0 ~len:(Offline.Plane.length e.arrival)
  in
  Util.Sexp.List
    [ Util.Sexp.Atom "prefix-opt";
      Util.Sexp.List [ Util.Sexp.Atom "clock"; Util.Sexp.Atom (string_of_int e.clock) ];
      Util.Snapshot.float_array_field "arrival" arrival ]

let restore e sexp =
  match sexp with
  | Util.Sexp.List (Util.Sexp.Atom "prefix-opt" :: fields) -> (
      match
        ( Util.Snapshot.int_of_field fields "clock",
          Util.Snapshot.floats_of_field fields "arrival" )
      with
      | Error m, _ | _, Error m -> Error m
      | Ok clock, Ok arrival ->
          if clock < 0 || clock > Model.Instance.horizon e.inst then
            Error "prefix-opt: clock outside the instance horizon"
          else if clock > 0 && Array.length arrival <> Offline.Grid.size e.grid then
            Error "prefix-opt: arrival layer does not match the state grid"
          else begin
            e.clock <- clock;
            if clock > 0 then Offline.Plane.of_array arrival e.arrival ~off:0;
            Ok ()
          end)
  | Util.Sexp.Atom _ | Util.Sexp.List _ -> Error "prefix-opt: unexpected payload shape"

(* --- the canonical sweep ---

   Slot t's arrival plane before pruning is A = R + g_t, where R is the
   previous plane after the ramp.  A state x is dominated when some
   z <= x, z <> x, reaches it more cheaply through power-ups alone:
   A(x) > cand(x) + allowance, where, in rank (lexicographic) order,

     cand(x) = min over the axes j where x is not at the axis start of
               U(x - e_j) + beta_j (v_j - v_j^prev),
     U(x)    = min (A(x), cand(x))        (the power-up-only ramp of A).

   A dominated state is never an argmin nor tied with one, and every
   later ramp value reached through it is reached more cheaply (by far
   more than float noise) through the z beating it, so the plane keeps
   +infinity there: ramps, argmins and decisions are bit-identical to
   keeping A, and the plane does not depend on which states' g_t were
   skipped.  U lives in [ops], over each g_t once it is consumed. *)

(* Float noise the dominance test tolerates around a candidate cost. *)
let[@inline] allowance c =
  let a = Float.abs c in
  1e-9 *. if a > 1. then a else 1.

(* The earlier-axis predecessors of the line starting at [rank0]; their
   count. *)
let line_preds e ~rank0 =
  let np = ref 0 in
  for j = 0 to Array.length e.axes - 2 do
    let axis = e.axes.(j) in
    let idx = rank0 / e.strides.(j) mod Array.length axis in
    if idx > 0 then begin
      e.pred_off.(!np) <- e.strides.(j);
      e.pred_climb.(!np) <- e.betas.(j) *. float_of_int (axis.(idx) - axis.(idx - 1));
      incr np
    end
  done;
  !np

(* cand of cell [i] (rank [r]) of the current line, written to
   [ops.(r)]: the lower ranks there already hold U. *)
let set_cand e ~np ~r ~i =
  let ops = e.ops in
  let c = ref (if i > 0 then ops.(r - 1) +. e.climbs.(i) else infinity) in
  for m = 0 to np - 1 do
    let v = ops.(r - e.pred_off.(m)) +. e.pred_climb.(m) in
    if v < !c then c := v
  done;
  ops.(r) <- !c

(* Consume g_t(r) from [ops]: write U(r) over it and the canonical
   arrival over R(r).  Returns whether the state is dominated. *)
let sweep_cell e ~np ~r ~i =
  let a = Bigarray.Array1.unsafe_get e.arrival r +. e.ops.(r) in
  set_cand e ~np ~r ~i;
  let c = e.ops.(r) in
  if a < c then e.ops.(r) <- a;
  let dominated = a > c +. allowance c in
  Bigarray.Array1.unsafe_set e.arrival r (if dominated then infinity else a);
  dominated

(* Try to prove cells [from ..] of the line at [rank0] dominated without
   their g_t: continue the cand chain as if each were dominated (U =
   cand) and require R + the line's lower bound on g_t to exceed it by
   twice the allowance, so that float noise in a solved g_t could never
   have kept the state.  Returns the first cell that fails, or the line
   length when every remaining cell is proved. *)
let prove e ~np ~rank0 ~from =
  let values = e.axes.(Array.length e.axes - 1) in
  let len = Array.length values in
  let b = e.bound in
  let q = ref from and proved = ref true in
  while !proved && !q < len do
    let r = rank0 + !q in
    set_cand e ~np ~r ~i:!q;
    let c = e.ops.(r) in
    let lower =
      Bigarray.Array1.unsafe_get e.arrival r
      +. (b.Model.Cost.icept +. (b.Model.Cost.slope *. float_of_int values.(!q)))
    in
    if lower > c +. (2. *. allowance c) then incr q else proved := false
  done;
  !q

(* The fill: each line's cells are computed through a [Model.Cost]
   cursor and swept as they come.  After a dominated cell, the line's
   dual bound may prove every remaining cell dominated, and the line
   stops there: the solved cells are a prefix of the line with its warm
   chain, so each solved g_t has [Dp.fill_row]'s bits.  After a failed
   proof, none restarts before the sweep reaches the failing cell, which
   keeps proof work linear in the line length. *)
let sweep e ~time =
  let values = e.axes.(Array.length e.axes - 1) in
  let len = Array.length values in
  let ctx = Model.Cost.line_ctx e.inst ~time ~values in
  for k = 0 to (Offline.Grid.size e.grid / len) - 1 do
    let rank0 = k * len in
    let np = line_preds e ~rank0 in
    let line =
      Model.Cost.line_start ~ctx ~table:e.ops ~rank0
        ~x:(Offline.Grid.config_scratch e.grid rank0) ~values
    in
    let i = ref 0 and next_proof = ref 0 in
    while !i < len do
      Model.Cost.line_cell line !i;
      if
        sweep_cell e ~np ~r:(rank0 + !i) ~i:!i
        && !i >= !next_proof
        && !i < len - 1
      then
        if not (Model.Cost.line_bound line e.bound) then next_proof := len
        else begin
          let q = prove e ~np ~rank0 ~from:(!i + 1) in
          if q < len then next_proof := q
          else begin
            for c = !i + 1 to len - 1 do
              Bigarray.Array1.unsafe_set e.arrival (rank0 + c) infinity
            done;
            i := len
          end
        end;
      incr i
    done;
    Model.Cost.line_finish line
  done

let step e =
  if e.clock >= Model.Instance.horizon e.inst then
    invalid_arg "Prefix_opt.step: past the horizon";
  let time = e.clock in
  let d = Model.Instance.num_types e.inst in
  let n = Offline.Grid.size e.grid in
  if time = 0 then begin
    Offline.Plane.fill_range e.arrival ~off:0 ~len:n infinity;
    match Offline.Grid.index_of e.grid (Model.Config.zero d) with
    | Some idx -> Bigarray.Array1.unsafe_set e.arrival idx 0.
    | None -> assert false
  end;
  (* The ramp updates the arrival plane in place to R (a zero [ops] row
     adds nothing to values >= 0); the sweep then adds g_t and prunes. *)
  Array.fill e.ops 0 n 0.;
  Offline.Transform.ramp_grid_plane ~ops:e.ops ~grid:e.grid ~betas:e.betas e.arrival
    ~off:0;
  sweep e ~time;
  e.clock <- time + 1;
  (* Flat-index order is lexicographic, so the first strict minimum is the
     lexicographically smallest optimal last configuration. *)
  let best = ref infinity and lo = ref (-1) and hi = ref (-1) in
  for idx = 0 to n - 1 do
    let c = Bigarray.Array1.unsafe_get e.arrival idx in
    if c < !best then begin
      best := c;
      lo := idx;
      hi := idx
    end
    else if c = !best then hi := idx
  done;
  if not (Float.is_finite !best) then
    invalid_arg "Prefix_opt.step: no feasible schedule for this prefix";
  { last = Offline.Grid.config_at e.grid !lo;
    last_hi = Offline.Grid.config_at e.grid !hi;
    prefix_cost = !best }

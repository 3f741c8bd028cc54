(* In rank (lexicographic) order the sweep keeps U, the power-up-only
   ramp of A = R + g_t:

     cand(x) = min over the axes j where x is not at the axis start of
               U(x - e_j) + beta_j (v_j - v_j^prev),
     U(x)    = min (A(x), cand(x)),

   and x is dominated when A(x) > cand(x) + allowance.  U lives in
   [ops], over each g_t once it is consumed. *)

(* The sweep's smallest arrival, in an all-float record so that it is
   stored unboxed. *)
type low = { mutable best : float }

type t = {
  grid : Grid.t;
  ops : float array;  (* per rank: g_t, then U; a sweep writes each cell before reading it *)
  axes : int array array;  (* the grid's axis values *)
  strides : int array;  (* row-major stride per axis *)
  climbs : float array array;  (* climbs.(j).(i): axis j's power-up cost from value i-1 to i *)
  pos : int array;  (* the current line's value index on each axis j < d-1 *)
  pred_off : int array;  (* the current line's earlier-axis predecessors: rank distance, *)
  pred_climb : float array;  (* and power-up cost from each *)
  bound : Model.Cost.bound;
  ctx : Model.Cost.line_ctx;  (* the line fills' tables and cursor, sized for the grid *)
  low : low;
  mutable lo : int;  (* the first and last rank holding [low.best] *)
  mutable hi : int;
  mutable proved : int;  (* this sweep's cells skipped by completed proofs, *)
  mutable refits : int;  (* its refits, *)
  mutable skipped : int;  (* and its cells below the load, added to the counters once per sweep *)
}

let c_proved = Obs.Counter.make "forward.proved_cells"
let c_refits = Obs.Counter.make "forward.refits"
let c_skipped = Obs.Counter.make "forward.skipped_cells"

let create grid ~betas =
  let d = Grid.dim grid in
  if Array.length betas <> d then invalid_arg "Forward.create: betas mismatch";
  let axes = Array.init d (Grid.axis_values grid) in
  let strides = Array.make d 1 in
  for j = d - 2 downto 0 do
    strides.(j) <- strides.(j + 1) * Array.length axes.(j + 1)
  done;
  let climbs =
    Array.mapi
      (fun j axis ->
        Array.mapi
          (fun i v -> if i = 0 then 0. else betas.(j) *. float_of_int (v - axis.(i - 1)))
          axis)
      axes
  in
  { grid;
    ops = Array.create_float (Grid.size grid);
    axes;
    strides;
    climbs;
    pos = Array.make (d - 1) 0;
    pred_off = Array.make d 0;
    pred_climb = Array.make d 0.;
    bound = { Model.Cost.icept = 0.; slope = 0.; mu = 0. };
    ctx = Model.Cost.line_ctx ~axes;
    low = { best = infinity };
    lo = -1;
    hi = -1;
    proved = 0;
    refits = 0;
    skipped = 0 }

let grid e = e.grid

(* Float noise the dominance test tolerates around a candidate cost. *)
let[@inline] allowance c =
  let a = Float.abs c in
  1e-9 *. if a > 1. then a else 1.

(* The earlier-axis predecessors of the current line, from its value
   indices; their count. *)
let line_preds e =
  let np = ref 0 in
  for j = 0 to Array.length e.axes - 2 do
    let i = e.pos.(j) in
    if i > 0 then begin
      e.pred_off.(!np) <- e.strides.(j);
      e.pred_climb.(!np) <- e.climbs.(j).(i);
      incr np
    end
  done;
  !np

(* cand of cell [i] (rank [r]) of the current line, with its [np]
   earlier-axis predecessors, written to [ops.(r)]: the lower ranks
   there already hold U. *)
let set_cand e ~np ~r ~i =
  let ops = e.ops in
  let last = e.climbs.(Array.length e.climbs - 1) in
  let c = ref (if i > 0 then ops.(r - 1) +. last.(i) else infinity) in
  for m = 0 to np - 1 do
    let v = ops.(r - e.pred_off.(m)) +. e.pred_climb.(m) in
    if v < !c then c := v
  done;
  ops.(r) <- !c

(* Consume g_t(r) from [ops]: write U(r) over it and the canonical
   arrival over R(r), at [off + r] of [p].  Returns whether the state
   is dominated. *)
let sweep_cell e (p : Plane.t) ~off ~np ~r ~i =
  let a = Bigarray.Array1.unsafe_get p (off + r) +. e.ops.(r) in
  set_cand e ~np ~r ~i;
  let c = e.ops.(r) in
  if a < c then e.ops.(r) <- a;
  let dominated = a > c +. allowance c in
  if dominated then Bigarray.Array1.unsafe_set p (off + r) infinity
  else begin
    Bigarray.Array1.unsafe_set p (off + r) a;
    (* The ranks run in lexicographic order: keep the first and the
       last holding the smallest arrival. *)
    if a < e.low.best then begin
      e.low.best <- a;
      e.lo <- r;
      e.hi <- r
    end
    else if a = e.low.best then e.hi <- r
  end;
  dominated

(* Refits per proof: each is [Model.Cost.line_refit]'s few Newton
   steps, so a proof's work stays linear in the line length. *)
let max_refits = 16

(* Try to prove cells [from ..] of the line at [rank0] dominated without
   their g_t: continue the cand chain as if each were dominated (U =
   cand) and require R + the line's lower bound on g_t to exceed it by
   twice the allowance, so that float noise in a solved g_t could never
   have kept the state.  Where the bound fails at a cell, refit it to
   that cell's own multiplier and carry the new bound on along the line.
   Returns the first cell that fails after its refit, or the line length
   when every remaining cell is proved. *)
let prove e (p : Plane.t) ~off ~np ~rank0 ~from =
  let values = e.axes.(Array.length e.axes - 1) in
  let len = Array.length values in
  let b = e.bound in
  let q = ref from and proved = ref true and refits = ref 0 in
  while !proved && !q < len do
    let r = rank0 + !q in
    set_cand e ~np ~r ~i:!q;
    let c = e.ops.(r) in
    let v = values.(!q) in
    let ar = Bigarray.Array1.unsafe_get p (off + r) in
    let need = c +. (2. *. allowance c) in
    if ar +. (b.Model.Cost.icept +. (b.Model.Cost.slope *. float_of_int v)) > need then incr q
    else if !refits < max_refits && Model.Cost.line_refit e.ctx b ~v then begin
      incr refits;
      if ar +. (b.Model.Cost.icept +. (b.Model.Cost.slope *. float_of_int v)) > need then incr q
      else proved := false
    end
    else proved := false
  done;
  e.refits <- e.refits + !refits;
  !q

(* The fill: each line's cells are computed through a [Model.Cost]
   cursor and swept as they come.  A line starts at its first cell
   whose capacity covers the load ([Model.Cost.line_live]): below it
   g_t is +infinity, and so is U, since every predecessor of such a
   cell is below the load too, so those cells are written without a
   cell call and a line wholly below the load sets nothing up.  After a
   dominated cell, the line's dual bound may prove every remaining cell
   dominated, and the line stops there: the solved cells are a prefix
   of the line's live cells with its warm chain, so each solved g_t has
   [Dp.fill_row]'s bits.  After a failed proof, none restarts before
   the sweep reaches the failing cell, which keeps proof work linear in
   the line length. *)
let sweep_lines e (p : Plane.t) ~off =
  let values = e.axes.(Array.length e.axes - 1) in
  let len = Array.length values in
  let ctx = e.ctx and pos = e.pos in
  Array.fill pos 0 (Array.length pos) 0;
  for k = 0 to (Grid.size e.grid / len) - 1 do
    let rank0 = k * len in
    let live = Model.Cost.line_live ctx ~pos in
    for c = rank0 to rank0 + live - 1 do
      Bigarray.Array1.unsafe_set p (off + c) infinity;
      e.ops.(c) <- infinity
    done;
    e.skipped <- e.skipped + live;
    if live < len then begin
      let np = line_preds e in
      Model.Cost.line_start ctx ~table:e.ops ~rank0 ~pos;
      let i = ref live and next_proof = ref 0 in
      while !i < len do
        Model.Cost.line_cell ctx !i;
        if
          sweep_cell e p ~off ~np ~r:(rank0 + !i) ~i:!i
          && !i >= !next_proof
          && !i < len - 1
        then
          if not (Model.Cost.line_bound ctx e.bound) then next_proof := len
          else begin
            let q = prove e p ~off ~np ~rank0 ~from:(!i + 1) in
            if q < len then next_proof := q
            else begin
              e.proved <- e.proved + (len - 1 - !i);
              for c = !i + 1 to len - 1 do
                Bigarray.Array1.unsafe_set p (off + rank0 + c) infinity
              done;
              i := len
            end
          end;
        incr i
      done
    end;
    Grid.next_line e.grid pos
  done

(* The sweep's work goes to the counters once, also when a line
   raises. *)
let flush e =
  Model.Cost.line_flush e.ctx;
  Obs.Counter.add c_proved e.proved;
  Obs.Counter.add c_refits e.refits;
  Obs.Counter.add c_skipped e.skipped;
  e.proved <- 0;
  e.refits <- 0;
  e.skipped <- 0

let sweep e inst ~time (p : Plane.t) ~off =
  if off < 0 || off + Grid.size e.grid > Plane.length p then
    invalid_arg "Forward.sweep: segment out of range";
  Model.Cost.line_layer e.ctx inst ~time;
  e.low.best <- infinity;
  e.lo <- -1;
  e.hi <- -1;
  match sweep_lines e p ~off with
  | () -> flush e
  | exception ex ->
      flush e;
      raise ex

let min_cost e = e.low.best
let argmin e = e.lo
let argmin_last e = e.hi

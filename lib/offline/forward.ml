(* In rank (lexicographic) order the sweep keeps U, the power-up-only
   ramp of A = R + g_t:

     cand(x) = min over the axes j where x is not at the axis start of
               U(x - e_j) + beta_j (v_j - v_j^prev),
     U(x)    = min (A(x), cand(x)),

   and x is dominated when A(x) > cand(x) + allowance.  U lives in
   [ops], over each g_t once it is consumed. *)

type t = {
  grid : Grid.t;
  betas : float array;
  ops : float array;  (* per rank: g_t, then U; a sweep writes each cell before reading it *)
  axes : int array array;  (* the grid's axis values *)
  strides : int array;  (* row-major stride per axis *)
  climbs : float array;  (* climbs.(i): the last axis's power-up cost from value i-1 to i *)
  pred_off : int array;  (* the current line's earlier-axis predecessors: rank distance, *)
  pred_climb : float array;  (* and power-up cost from each *)
  bound : Model.Cost.bound;
  mutable proved : int;  (* this sweep's cells skipped by completed proofs, *)
  mutable refits : int;  (* and its refits, added to the counters once per sweep *)
}

let c_proved = Obs.Counter.make "forward.proved_cells"
let c_refits = Obs.Counter.make "forward.refits"

let create grid ~betas =
  let d = Grid.dim grid in
  if Array.length betas <> d then invalid_arg "Forward.create: betas mismatch";
  let axes = Array.init d (Grid.axis_values grid) in
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
  { grid;
    betas;
    ops = Array.create_float (Grid.size grid);
    axes;
    strides;
    climbs;
    pred_off = Array.make d 0;
    pred_climb = Array.make d 0.;
    bound = { Model.Cost.icept = 0.; slope = 0.; mu = 0. };
    proved = 0;
    refits = 0 }

let grid e = e.grid

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
   arrival over R(r), at [off + r] of [p].  Returns whether the state
   is dominated. *)
let sweep_cell e (p : Plane.t) ~off ~np ~r ~i =
  let a = Bigarray.Array1.unsafe_get p (off + r) +. e.ops.(r) in
  set_cand e ~np ~r ~i;
  let c = e.ops.(r) in
  if a < c then e.ops.(r) <- a;
  let dominated = a > c +. allowance c in
  Bigarray.Array1.unsafe_set p (off + r) (if dominated then infinity else a);
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
let prove e line (p : Plane.t) ~off ~np ~rank0 ~from =
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
    else if !refits < max_refits && Model.Cost.line_refit line b ~v then begin
      incr refits;
      if ar +. (b.Model.Cost.icept +. (b.Model.Cost.slope *. float_of_int v)) > need then incr q
      else proved := false
    end
    else proved := false
  done;
  e.refits <- e.refits + !refits;
  !q

(* The fill: each line's cells are computed through a [Model.Cost]
   cursor and swept as they come.  After a dominated cell, the line's
   dual bound may prove every remaining cell dominated, and the line
   stops there: the solved cells are a prefix of the line with its warm
   chain, so each solved g_t has [Dp.fill_row]'s bits.  After a failed
   proof, none restarts before the sweep reaches the failing cell, which
   keeps proof work linear in the line length. *)
let sweep e inst ~time (p : Plane.t) ~off =
  let n = Grid.size e.grid in
  if off < 0 || off + n > Plane.length p then
    invalid_arg "Forward.sweep: segment out of range";
  let values = e.axes.(Array.length e.axes - 1) in
  let len = Array.length values in
  let ctx = Model.Cost.line_ctx inst ~time ~values in
  for k = 0 to (n / len) - 1 do
    let rank0 = k * len in
    let np = line_preds e ~rank0 in
    let line =
      Model.Cost.line_start ~ctx ~table:e.ops ~rank0 ~x:(Grid.config_scratch e.grid rank0)
        ~values
    in
    let i = ref 0 and next_proof = ref 0 in
    while !i < len do
      Model.Cost.line_cell line !i;
      if
        sweep_cell e p ~off ~np ~r:(rank0 + !i) ~i:!i
        && !i >= !next_proof
        && !i < len - 1
      then
        if not (Model.Cost.line_bound line e.bound) then next_proof := len
        else begin
          let q = prove e line p ~off ~np ~rank0 ~from:(!i + 1) in
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
    done;
    Model.Cost.line_finish line
  done;
  Obs.Counter.add c_proved e.proved;
  Obs.Counter.add c_refits e.refits;
  e.proved <- 0;
  e.refits <- 0

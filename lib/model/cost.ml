let cap_eps = 1e-9

(* Total capacity of configuration [x]; feasible iff >= load. *)
let config_capacity inst x = Config.capacity inst.Instance.types x

let all_constant inst ~time x =
  let d = Instance.num_types inst in
  let ok = ref true in
  for typ = 0 to d - 1 do
    if x.(typ) > 0 && not (Convex.Fn.is_constant (inst.Instance.cost ~time ~typ)) then
      ok := false
  done;
  !ok

let idle_sum inst ~time x =
  let acc = ref 0. in
  Array.iteri
    (fun typ xj ->
      if xj > 0 then
        acc := !acc +. (float_of_int xj *. Instance.idle_cost inst ~time ~typ))
    x;
  !acc

(* Proportional-to-capacity split: feasible whenever the configuration
   covers the load, used when every active type has constant cost. *)
let proportional_split inst x =
  let types = inst.Instance.types in
  let cap = config_capacity inst x in
  Array.mapi
    (fun j xj -> float_of_int xj *. types.(j).Server_type.cap /. cap)
    x

let pieces inst ~time x ~load =
  let types = inst.Instance.types in
  Array.mapi
    (fun j xj ->
      Convex.Dispatch.scaled_piece (inst.Instance.cost ~time ~typ:j) ~x:xj ~load
        ~cap:types.(j).Server_type.cap)
    x

(* [solve] is the dispatch solver: {!Convex.Dispatch.solve}, or a
   memo's {!Convex.Dispatch.solve_with}. *)
let split_for_volume ~solve inst ~time ~load x =
  let d = Instance.num_types inst in
  if load <= 0. then Some (Array.make d 0., idle_sum inst ~time x)
  else if config_capacity inst x +. cap_eps < load then None
  else if all_constant inst ~time x then
    Some (proportional_split inst x, idle_sum inst ~time x)
  else if d = 1 then begin
    (* Lemma 2: spread the volume evenly over the active servers. *)
    let xf = float_of_int x.(0) in
    let z = Float.min (load /. xf) inst.Instance.types.(0).Server_type.cap in
    Some ([| 1. |], xf *. Convex.Fn.eval (inst.Instance.cost ~time ~typ:0) z)
  end
  else
    match solve (pieces inst ~time x ~load) ~total:1. with
    | None -> None
    | Some { Convex.Dispatch.assignment; objective } ->
        (* Idle cost of types left without volume still accrues: the
           dispatch pieces already include it via h_j(0) = x_j f(0). *)
        Some (assignment, objective)

let cold_solve pieces ~total = Convex.Dispatch.solve pieces ~total

let operating_split inst ~time x =
  split_for_volume ~solve:cold_solve inst ~time ~load:inst.Instance.load.(time) x

let operating_by_type inst ~time ~volume x =
  if volume < 0. then invalid_arg "Cost.operating_by_type: negative volume";
  match split_for_volume ~solve:cold_solve inst ~time ~load:volume x with
  | None -> None
  | Some (split, _) ->
      Some
        (Array.mapi
           (fun j xj ->
             if xj = 0 then 0.
             else
               let xf = float_of_int xj in
               xf
               *. Convex.Fn.eval (inst.Instance.cost ~time ~typ:j)
                    (volume *. split.(j) /. xf))
           x)

let operating_volume inst ~time ~volume x =
  if volume < 0. then invalid_arg "Cost.operating_volume: negative volume";
  match split_for_volume ~solve:cold_solve inst ~time ~load:volume x with
  | None -> infinity
  | Some (_, g) -> g

let operating_in ~solve inst ~time x =
  match split_for_volume ~solve inst ~time ~load:inst.Instance.load.(time) x with
  | None -> infinity
  | Some (_, g) -> g

let operating inst ~time x = operating_in ~solve:cold_solve inst ~time x

let load_dependent inst ~time x ~typ =
  match operating_split inst ~time x with
  | None -> infinity
  | Some (split, _) ->
      if x.(typ) = 0 then 0.
      else
        let xf = float_of_int x.(typ) in
        let fn = inst.Instance.cost ~time ~typ in
        let per_server = inst.Instance.load.(time) *. split.(typ) /. xf in
        Float.max 0. (xf *. (Convex.Fn.eval fn per_server -. Convex.Fn.eval fn 0.))

let switching inst ~from_ ~to_ = Config.switching_cost inst.Instance.types ~from_ ~to_

let schedule_operating inst s =
  let acc = ref 0. in
  for time = 0 to Instance.horizon inst - 1 do
    acc := !acc +. operating inst ~time s.(time)
  done;
  !acc

let schedule_switching inst s =
  let d = Instance.num_types inst in
  let horizon = Instance.horizon inst in
  let prev = ref (Config.zero d) in
  let acc = ref 0. in
  for time = 0 to horizon - 1 do
    acc := !acc +. Config.transition_cost inst.Instance.types ~from_:!prev ~to_:s.(time);
    prev := s.(time)
  done;
  (* Final teardown to x_{T+1} = 0 (free unless down costs are set). *)
  if horizon > 0 then
    acc :=
      !acc +. Config.transition_cost inst.Instance.types ~from_:!prev ~to_:(Config.zero d);
  !acc

let schedule inst s =
  if Schedule.horizon s <> Instance.horizon inst then
    invalid_arg "Cost.schedule: horizon mismatch";
  schedule_operating inst s +. schedule_switching inst s

(* The memo: flat per-slot tables addressed by grid rank.  The DP
   loops already know each state's flat index, so the index *is* the
   key.  No hashing, no key allocation: [nan] marks an empty slot
   ([operating] never returns [nan] — infeasible states are
   [infinity]). *)

type cache = {
  inst : Instance.t;
  layers : float array array; (* slot -> rank -> g_t(x); [nan] = empty *)
  solve : Convex.Dispatch.piece array -> total:float -> Convex.Dispatch.solution option;
      (* the misses' dispatch, in the memo's own sweep *)
}

let make_cache inst =
  { inst;
    layers = Array.make (max 1 (Instance.horizon inst)) [||];
    solve = Convex.Dispatch.solve_with (Convex.Dispatch.sweep ()) }

let c_rank_hits = Obs.Counter.make "cost.rank_hits"
let c_rank_misses = Obs.Counter.make "cost.rank_misses"

let cache_instance cache = cache.inst

let layer_table cache ~time n =
  let cur = cache.layers.(time) in
  if Array.length cur >= n then cur
  else begin
    (* A different size means a different rank space (a different grid):
       start empty rather than reinterpret stale ranks. *)
    let t = Array.make n nan in
    cache.layers.(time) <- t;
    t
  end

(* The floats of a line fill, in an all-float record, where they are
   stored unboxed. *)
type line_floats = {
  mutable load : float;  (* the layer's *)
  mutable cap_last : float;  (* per-server capacity of the swept type, likewise *)
  mutable cap_base : float;  (* capacity of the line's fixed prefix x.(0 .. d-2) *)
  mutable idle_base : float;  (* idle sum of the prefix, when load-independent *)
  mutable idle_last : float;  (* idle cost of a swept server, likewise *)
}

type bound = { mutable icept : float; mutable slope : float; mutable mu : float }

(* The derivative data of the line's relaxed dual at the multiplier
   [at] ([nan]: none yet), kept beside the bound it was evaluated into
   ([owner]) so that a refit's first Newton step needs no evaluation.
   At cell [v], D'(at) = gap - v resp and -D''(at) = curv + v dresp. *)
type dual_floats = {
  mutable at : float;
  mutable gap : float;  (* lambda_t minus the prefix's response volume *)
  mutable curv : float;  (* the prefix response volume's slope in mu *)
  mutable resp : float;  (* a swept server's response s_{d-1}(at) *)
  mutable dresp : float;  (* and its slope *)
}

(* The line fills' context over one grid: its axes, and the invariants
   of the layer it is aimed at, which every line of the layer shares:
   the slot's load, the per-type costs and their constants, and per
   axis a table of dispatch pieces by value index, each built (with its
   solver caches, unboxed) the first time a line uses it.  All storage
   is sized here, once per grid; aiming at a layer overwrites it in
   place, and a type whose
   cost function and capacity are those of the previous layer keeps its
   constants, so a time-independent instance's layers allocate nothing
   to aim.  A
   line is named by its prefix's value indices ([pos]), which the
   caller steps through its grid.

   The context is also its own line cursor: the state of one grid
   line's fill between cells, so a caller can drive the line cell by
   cell and stop after any of them with the warm chain of the cells
   before intact.  Two contexts share no fill state.  The cursor is
   re-aimed at each line; its floats live in all-float records (the
   line's beside the layer's), where they are stored unboxed, so
   re-aiming allocates nothing.  Its work counts accumulate across
   lines until {!line_flush}. *)
type line_ctx = {
  lx_axes : int array array;  (* the grid's axis values; the last is swept *)
  lx_f : line_floats;  (* the layer's load and swept capacity, the line's sums *)
  lx_fns : Convex.Fn.t array;  (* f_{t,j} per type *)
  lx_caps : float array;  (* per-server capacity per type *)
  lx_idle : float array;  (* f_{t,j}(0) per type *)
  lx_const : bool array;  (* f_{t,j} load-independent *)
  lx_kers : Convex.Fn.probe_kernel array;  (* for the dual's closed forms *)
  lx_inv : bool array;  (* f_{t,j}'s derivative inverts in closed form *)
  lx_fcap : float array;  (* f_{t,j}(cap_j): a capped response's value *)
  lx_dcap : float array;  (* f_{t,j}'(cap_j): the multiplier that saturates type j *)
  lx_pieces : Convex.Dispatch.table array;  (* per axis: the piece of each value *)
  dual : dual_floats;
  mutable table : float array;
  mutable rank0 : int;
  x : int array;  (* the line's configuration; x.(d-1) unused *)
  mutable loaded : bool;
  mutable base_const : bool;  (* every active prefix type load-independent *)
  mutable last_const : bool;
  sw : Convex.Dispatch.sweep;  (* prefix pieces in its slots, then the cell's swept one *)
  mutable misses : int;
  mutable owner : bound;  (* the bound [dual] was last evaluated into *)
}

let line_floats () = { load = 0.; cap_base = 0.; cap_last = 0.; idle_base = 0.; idle_last = 0. }

let line_ctx ~axes =
  let d = Array.length axes in
  if d = 0 then invalid_arg "Cost.line_ctx: no axes";
  { lx_axes = axes;
    lx_f = line_floats ();
    lx_fns = Array.make d (Convex.Fn.const 0.);
    lx_caps = Array.make d 0.;
    lx_idle = Array.make d 0.;
    lx_const = Array.make d true;
    lx_kers = Array.make d Convex.Fn.Generic_kernel;
    lx_inv = Array.make d true;
    lx_fcap = Array.make d 0.;
    lx_dcap = Array.make d 0.;
    lx_pieces = Array.map (fun a -> Convex.Dispatch.table (Array.length a)) axes;
    dual = { at = nan; gap = 0.; curv = 0.; resp = 0.; dresp = 0. };
    table = [||];
    rank0 = 0;
    x = Array.make d 0;
    loaded = false;
    base_const = true;
    last_const = true;
    sw = Convex.Dispatch.sweep ~slots:d ();
    misses = 0;
    owner = { icept = 0.; slope = 0.; mu = nan } }

let line_layer ctx inst ~time =
  let d = Array.length ctx.lx_axes in
  if Instance.num_types inst <> d then invalid_arg "Cost.line_layer: type count mismatch";
  ctx.lx_f.load <- inst.Instance.load.(time);
  for j = 0 to d - 1 do
    let fn = inst.Instance.cost ~time ~typ:j in
    let cap = inst.Instance.types.(j).Server_type.cap in
    if not (fn == ctx.lx_fns.(j) && cap = ctx.lx_caps.(j)) then begin
      ctx.lx_fns.(j) <- fn;
      ctx.lx_caps.(j) <- cap;
      ctx.lx_idle.(j) <- Convex.Fn.eval fn 0.;
      ctx.lx_const.(j) <- Convex.Fn.is_constant fn;
      ctx.lx_kers.(j) <- Convex.Fn.probe_kernel fn;
      ctx.lx_inv.(j) <- Convex.Fn.has_inv_deriv fn;
      ctx.lx_fcap.(j) <- Convex.Fn.eval fn cap;
      ctx.lx_dcap.(j) <- Convex.Fn.deriv fn cap
    end;
    Convex.Dispatch.table_aim ctx.lx_pieces.(j) fn ~load:ctx.lx_f.load ~cap
  done;
  ctx.lx_f.cap_last <- ctx.lx_caps.(d - 1)

(* Capacity of the line's fixed prefix, in ascending-type order.
   Inlined, so that the float is not boxed. *)
let[@inline] prefix_capacity ctx ~pos =
  let cap = ref 0. in
  for j = 0 to Array.length ctx.lx_axes - 2 do
    let xj = ctx.lx_axes.(j).(pos.(j)) in
    cap := !cap +. (float_of_int xj *. ctx.lx_caps.(j))
  done;
  !cap

(* [line_cell]'s infeasibility test, run ahead of the line.  Capacity
   grows along it (float sums and products are monotone), so its
   infeasible cells are a prefix, and a binary search finds the first
   cell that passes.  It leaves the cursor alone. *)
let line_live ctx ~pos =
  let f = ctx.lx_f in
  let load = f.load in
  if load <= 0. then 0
  else begin
    let d = Array.length ctx.lx_axes in
    let values = ctx.lx_axes.(d - 1) in
    let cap_base = prefix_capacity ctx ~pos and cap_last = f.cap_last in
    let lo = ref 0 and hi = ref (Array.length values) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if cap_base +. (float_of_int values.(mid) *. cap_last) +. cap_eps < load then lo := mid + 1
      else hi := mid
    done;
    !lo
  end

(* Axis [j]'s table with value index [i] built. *)
let built_table ctx j i =
  let t = ctx.lx_pieces.(j) in
  if not (Convex.Dispatch.table_built t i) then
    Convex.Dispatch.table_build t i ctx.lx_axes.(j).(i);
  t

let line_start l ~table ~rank0 ~pos =
  let d = Array.length l.lx_axes in
  let x = l.x in
  for j = 0 to d - 2 do
    x.(j) <- l.lx_axes.(j).(pos.(j))
  done;
  l.table <- table;
  l.rank0 <- rank0;
  l.dual.at <- nan;
  let f = l.lx_f in
  let load = f.load in
  (* The load-independent cells' idle sums (the whole line at zero
     load), derived only on the lines that can have such cells;
     ascending-type order keeps the float sums identical to
     [idle_sum]'s. *)
  let base_const = ref true in
  if load > 0. then
    for j = 0 to d - 2 do
      if x.(j) > 0 && not l.lx_const.(j) then base_const := false
    done;
  let last_const = load <= 0. || l.lx_const.(d - 1) in
  let idle_base = ref 0. in
  if !base_const then
    for j = 0 to d - 2 do
      if x.(j) > 0 then idle_base := !idle_base +. (float_of_int x.(j) *. l.lx_idle.(j))
    done;
  f.idle_base <- !idle_base;
  f.idle_last <- (if !base_const && last_const then l.lx_idle.(d - 1) else 0.);
  l.base_const <- !base_const;
  l.last_const <- last_const;
  l.loaded <- load > 0.;
  if load > 0. then begin
    f.cap_base <- prefix_capacity l ~pos;
    Convex.Dispatch.sweep_start l.sw;
    for j = 0 to d - 2 do
      Convex.Dispatch.sweep_seed l.sw j (built_table l j pos.(j)) pos.(j)
    done
  end

(* Every fast path reproduces [operating] bit-for-bit (same summation
   order); the dispatch path solves the same KKT system from the
   line's warm bracket.  A dispatch cell allocates nothing once its
   swept piece is built: the pieces and their caches come from the
   context's tables, and the solver writes the objective straight into
   the table. *)
let[@inline] line_cell l i =
  let idx = l.rank0 + i in
  let f = l.lx_f in
  l.misses <- l.misses + 1;
  let v = l.lx_axes.(Array.length l.lx_axes - 1).(i) in
  if l.loaded && f.cap_base +. (float_of_int v *. f.cap_last) +. cap_eps < f.load then
    l.table.(idx) <- infinity
  else if l.base_const && (v = 0 || l.last_const) then
    l.table.(idx) <-
      (if v > 0 then f.idle_base +. (float_of_int v *. f.idle_last) else f.idle_base)
  else if Array.length l.x = 1 then begin
    (* Lemma 2: spread the volume evenly over the active servers. *)
    let xf = float_of_int v in
    let z = Float.min (f.load /. xf) f.cap_last in
    l.table.(idx) <- xf *. Convex.Fn.eval l.lx_fns.(0) z
  end
  else begin
    let d = Array.length l.x in
    Convex.Dispatch.sweep_seed l.sw (d - 1) (built_table l (d - 1) i) i;
    Convex.Dispatch.sweep_solve_seeded l.sw ~d ~total:1. l.table idx
  end

(* The flush lets go of the layer's pieces built through [Fn] (costs
   other than power and quadratic curves): a long-lived context that
   kept them until the next layer would have them promoted to the major
   heap. *)
let line_flush ctx =
  if ctx.misses > 0 then Obs.Counter.add c_rank_misses ctx.misses;
  ctx.misses <- 0;
  Convex.Dispatch.sweep_finish ctx.sw;
  Array.iter Convex.Dispatch.table_clear ctx.lx_pieces

(* The line's relaxed dual at [b.mu], per unit of load: with
   [phi_j(mu) = min_{0 <= s <= cap_j} f_{t,j}(s) - mu s], the bound
   [icept + slope v = lambda_t mu + sum_{j<d-1} x_j phi_j(mu) +
   v phi_{d-1}(mu)], and the responses [s_j] (the minimisers, whose
   volume gives D') with their slopes [ds_j / dmu] (which give D'') in
   [l.dual].  The kernel families evaluate [Fn.inv_deriv]'s and
   [Fn.eval]'s expressions without a boxing call into [Fn], with one
   [**] per power type: an interior power response has
   [s^expo = s * mu * scale], and a capped one takes [f(cap)] from the
   layer context.  A response below [mu]'s reach ([mu <= 0], or a
   quadratic's [mu <= c1]) is 0 with value [f(0)]: f is
   non-decreasing.  A [nan] (no closed form) passes through to the
   caller's comparison, which then proves nothing. *)
let dual_at l b =
  let x = l.x and dv = l.dual in
  let d = Array.length x in
  let mu = b.mu and load = l.lx_f.load in
  let icept = ref (load *. mu) and gap = ref load and curv = ref 0. in
  for j = 0 to d - 1 do
    if j = d - 1 || x.(j) > 0 then begin
      let phi = ref l.lx_idle.(j) and s = ref 0. and ds = ref 0. in
      if mu > 0. then begin
        let cap = l.lx_caps.(j) in
        match l.lx_kers.(j) with
        | Convex.Fn.Power_kernel { idle; coef; scale; expo_inv; _ } ->
            let r = (mu *. scale) ** expo_inv in
            if r >= cap then begin
              s := cap;
              phi := l.lx_fcap.(j) -. (mu *. cap)
            end
            else begin
              s := r;
              ds := expo_inv *. r /. mu;
              phi := idle +. (coef *. (r *. mu *. scale)) -. (mu *. r)
            end
        | Convex.Fn.Quad_kernel { c0; c1; c2; inv_c2x2; _ } ->
            if mu > c1 then begin
              let r = (mu -. c1) *. inv_c2x2 in
              if r >= cap then begin
                s := cap;
                phi := l.lx_fcap.(j) -. (mu *. cap)
              end
              else begin
                s := r;
                ds := inv_c2x2;
                phi := c0 +. (c1 *. r) +. (c2 *. r *. r) -. (mu *. r)
              end
            end
        | Convex.Fn.Generic_kernel ->
            let fn = l.lx_fns.(j) in
            let r = Convex.Fn.inv_deriv fn mu in
            let r = if r > cap then cap else r in
            s := r;
            phi := Convex.Fn.eval fn r -. (mu *. r)
      end;
      if j = d - 1 then begin
        b.slope <- !phi;
        dv.resp <- !s;
        dv.dresp <- !ds
      end
      else begin
        let n = float_of_int x.(j) in
        icept := !icept +. (n *. !phi);
        gap := !gap -. (n *. !s);
        curv := !curv +. (n *. !ds)
      end
    end
  done;
  b.icept <- !icept;
  dv.gap <- !gap;
  dv.curv <- !curv;
  dv.at <- mu;
  l.owner <- b

(* Weak duality holds for any multiplier, so a stale or missing one
   (nan before the line's first analytic solve) only loosens the bound:
   [mu = 0] then gives the idle sum. *)
let line_bound l b =
  let x = l.x in
  let d = Array.length x in
  let closed = ref l.lx_inv.(d - 1) in
  for j = 0 to d - 2 do
    if x.(j) > 0 && not l.lx_inv.(j) then closed := false
  done;
  if !closed then begin
    let nu = if l.loaded then Convex.Dispatch.sweep_multiplier l.sw else nan in
    b.mu <- (if nu > 0. then nu /. l.lx_f.load else 0.);
    dual_at l b
  end;
  !closed

(* Newton steps per refit: from the line's previous multiplier, which
   is near the cell's own, two or three steps reach the root. *)
let refit_steps = 3

(* Safeguarded Newton on D_v(mu), which is concave: D' = gap - v resp
   falls in mu, and its root is the cell's optimal multiplier.  Only
   lines whose active types (a prefix type with [x_j > 0], or the swept
   type) all have power or quadratic kernels are refitted: theirs give
   the responses and slopes in closed form.  The sign bracket starts at
   [0, the largest active saturation multiplier]: above it every
   response sits at its cap, so D' is the constant
   [lambda_t - capacity], which is <= 0 on a cell whose capacity covers
   the load.  Only such cells are refitted: on a cell feasible only
   within [cap_eps], D grows without bound while the solver's split
   stays finite.  A step that leaves the bracket, or one with no slope
   (every response at 0 or at its cap), bisects it instead. *)
let line_refit l b ~v =
  let vf = float_of_int v and f = l.lx_f and x = l.x in
  let d = Array.length x in
  let closed = ref (l.loaded && f.cap_base +. (vf *. f.cap_last) >= f.load) in
  let hi = ref 0. in
  for j = 0 to d - 1 do
    if j = d - 1 || x.(j) > 0 then begin
      (match l.lx_kers.(j) with
      | Convex.Fn.Power_kernel _ | Convex.Fn.Quad_kernel _ -> ()
      | Convex.Fn.Generic_kernel -> closed := false);
      if l.lx_dcap.(j) > !hi then hi := l.lx_dcap.(j)
    end
  done;
  if !closed then begin
    let dv = l.dual and load = f.load and lo = ref 0. in
    if not (l.owner == b && dv.at = b.mu) then dual_at l b;
    let steps = ref 0 in
    while !steps < refit_steps do
      incr steps;
      let mu = b.mu in
      let g = dv.gap -. (vf *. dv.resp) in
      if g > 0. then (if mu > !lo then lo := mu)
      else if mu < !hi then hi := mu;
      if Float.abs g <= 1e-9 *. load || !hi <= !lo then steps := refit_steps
      else begin
        let next = mu +. (g /. (dv.curv +. (vf *. dv.dresp))) in
        b.mu <- (if next > !lo && next < !hi then next else 0.5 *. (!lo +. !hi));
        dual_at l b
      end
    done
  end;
  !closed

let fill_line ~ctx ~table ~rank0 ~pos =
  let len = Array.length ctx.lx_axes.(Array.length ctx.lx_axes - 1) in
  let any = ref false in
  for i = 0 to len - 1 do
    if Float.is_nan table.(rank0 + i) then any := true
  done;
  if !any then begin
    line_start ctx ~table ~rank0 ~pos;
    for i = 0 to len - 1 do
      if Float.is_nan table.(rank0 + i) then line_cell ctx i
    done
  end

let operating_rank cache ~time ~rank x =
  let t = cache.layers.(time) in
  let v = t.(rank) in
  if Float.is_nan v then begin
    Obs.Counter.incr c_rank_misses;
    let g = operating_in ~solve:cache.solve cache.inst ~time x in
    t.(rank) <- g;
    g
  end
  else begin
    Obs.Counter.incr c_rank_hits;
    v
  end

type piece = { fn : Fn.t; upper : float }
type solution = { assignment : float array; objective : float }

let c_calls = Obs.Counter.make "dispatch.calls"
let c_analytic = Obs.Counter.make "dispatch.analytic_solves"
let c_newton = Obs.Counter.make "dispatch.newton_evals"
let c_iters = Obs.Counter.make "scalar_min.iters"
let count_iters n = Obs.Counter.add c_iters n

let feas_eps = 1e-9

(* The z-space accuracy of every solve. *)
let tol = 1e-9

(* [Float.max 1. x], bit for bit.  The stdlib breaks signed-zero ties
   with two [caml_signbit] C calls per use; [1.] has no sign to tie
   with, so plain comparisons that keep a NaN [x] give the same bits. *)
let[@inline] max1 x = if x > 1. || Float.is_nan x then x else 1.

let feasible pieces ~total =
  let cap = ref 0. in
  for j = 0 to Array.length pieces - 1 do
    cap := !cap +. pieces.(j).upper
  done;
  !cap +. (feas_eps *. max1 total) >= total

let objective pieces z =
  let acc = ref 0. in
  Array.iteri (fun j p -> acc := !acc +. Fn.eval p.fn z.(j)) pieces;
  !acc

(* Fast paths: with one unconstrained-at-zero piece the assignment is
   forced; with two, the problem is a 1-D convex minimisation solved by
   golden section.  These cover d <= 2, the dominant case in the
   experiments, far cheaper than the nested-bisection water-filling. *)
let solve_few pieces ~total =
  let active = ref [] in
  Array.iteri (fun j p -> if p.upper > 0. then active := j :: !active) pieces;
  match !active with
  | [] -> None (* total > 0 but no capacity; caught by feasibility upstream *)
  | [ j ] ->
      let z = Array.map (fun _ -> 0.) pieces in
      z.(j) <- total;
      Some { assignment = z; objective = objective pieces z }
  | [ j2; j1 ] ->
      (* active was built in reverse index order. *)
      let a = pieces.(j1) and b = pieces.(j2) in
      let lo = Float.max 0. (total -. b.upper) and hi = Float.min a.upper total in
      (* Capacity equal to the load within the feasibility tolerance can
         invert the interval by a rounding hair; collapse it instead. *)
      let hi = Float.max lo hi in
      let cost z = Fn.eval a.fn z +. Fn.eval b.fn (total -. z) in
      let z1, _ = Scalar_min.golden_section ~tol ~on_iter:count_iters cost ~lo ~hi in
      let z = Array.map (fun _ -> 0.) pieces in
      z.(j1) <- z1;
      z.(j2) <- total -. z1;
      Some { assignment = z; objective = objective pieces z }
  | [ j3; j2; j1 ] ->
      (* Nested golden section: the partial minimum over (z2, z3) is a
         convex function of z1, so an outer golden section around the
         2-piece inner solve stays exact (within tolerance) and is far
         cheaper than the general water-filling. *)
      let a = pieces.(j1) and b = pieces.(j2) and c = pieces.(j3) in
      let inner z1 =
        let rest = total -. z1 in
        let lo = Float.max 0. (rest -. c.upper) and hi = Float.min b.upper rest in
        let hi = Float.max lo hi in
        let cost z2 = Fn.eval b.fn z2 +. Fn.eval c.fn (rest -. z2) in
        Scalar_min.golden_section ~tol ~on_iter:count_iters cost ~lo ~hi
      in
      let lo1 = Float.max 0. (total -. (b.upper +. c.upper)) in
      let hi1 = Float.min a.upper total in
      let hi1 = Float.max lo1 hi1 in
      let outer z1 =
        let _, v = inner z1 in
        Fn.eval a.fn z1 +. v
      in
      let z1, _ = Scalar_min.golden_section ~tol ~on_iter:count_iters outer ~lo:lo1 ~hi:hi1 in
      let z2, _ = inner z1 in
      let z = Array.map (fun _ -> 0.) pieces in
      z.(j1) <- z1;
      z.(j2) <- z2;
      z.(j3) <- total -. z1 -. z2;
      Some { assignment = z; objective = objective pieces z }
  | _ :: _ :: _ :: _ -> None

(* KKT water-filling with bisected per-piece responses: bisect the
   multiplier [nu] until the responses sum to [total], interpolate
   across derivative plateaus (cost is linear along them, so the
   interpolation keeps optimality), then repair residual drift.  The
   response of piece [j] to multiplier [nu] is the largest z in
   [0, upper] whose derivative does not exceed [nu] — monotone
   non-decreasing in nu.  The derivatives at the piece
   endpoints are loop invariants of the outer bisection, so they are
   cached once per piece rather than re-derived at every probe. *)
let waterfill pieces ~total =
  let d = Array.length pieces in
  let d0 = Array.make d 0. and dup = Array.make d 0. in
  let nu_lo = ref infinity and nu_hi = ref neg_infinity in
  for j = 0 to d - 1 do
    if pieces.(j).upper > 0. then begin
      d0.(j) <- Fn.deriv pieces.(j).fn 0.;
      dup.(j) <- Fn.deriv pieces.(j).fn pieces.(j).upper;
      nu_lo := Float.min !nu_lo d0.(j);
      nu_hi := Float.max !nu_hi dup.(j)
    end
  done;
  let response j nu =
    let p = pieces.(j) in
    if p.upper <= 0. then 0.
    else if d0.(j) >= nu then 0.
    else if dup.(j) <= nu then p.upper
    else
      Scalar_min.bisect_monotone ~on_iter:count_iters (Fn.deriv p.fn) ~lo:0. ~hi:p.upper
        ~target:nu
  in
  let nu_lo = ref (!nu_lo -. 1.) and nu_hi = ref (!nu_hi +. 1.) in
  let sum_response nu =
    let acc = ref 0. in
    for j = 0 to d - 1 do
      acc := !acc +. response j nu
    done;
    !acc
  in
  (* Bisection invariant: sum_response !nu_lo <= total <= sum_response !nu_hi
     (the upper end saturates every piece, and feasibility holds).  Stop
     once the multiplier bracket is three orders tighter than the
     z-space tolerance — further halving cannot move the responses. *)
  let nu_eps = tol *. 1e-3 in
  let iters = ref 0 in
  while
    !iters < 80
    && !nu_hi -. !nu_lo > nu_eps *. Float.max 1. (Float.abs !nu_lo +. Float.abs !nu_hi)
  do
    incr iters;
    let m = (!nu_lo +. !nu_hi) /. 2. in
    if sum_response m < total then nu_lo := m else nu_hi := m
  done;
  let z_lo = Array.init d (fun j -> response j !nu_lo) in
  let z_hi = Array.init d (fun j -> response j !nu_hi) in
  let s_lo = Array.fold_left ( +. ) 0. z_lo in
  let s_hi = Array.fold_left ( +. ) 0. z_hi in
  let z =
    if Float.abs (s_hi -. s_lo) <= tol then z_hi
    else
      (* A derivative plateau straddles the optimal multiplier: cost is
         linear along it, so linear interpolation is optimal. *)
      let theta = Util.Float_cmp.clamp ~lo:0. ~hi:1. ((total -. s_lo) /. (s_hi -. s_lo)) in
      Array.init d (fun j -> z_lo.(j) +. (theta *. (z_hi.(j) -. z_lo.(j))))
  in
  (* Repair any residual drift from bisection tolerance. *)
  let s = Array.fold_left ( +. ) 0. z in
  let resid = ref (total -. s) in
  if Float.abs !resid > 0. then
    for j = 0 to d - 1 do
      if !resid > 0. then begin
        let room = pieces.(j).upper -. z.(j) in
        let delta = Float.min room !resid in
        if delta > 0. then begin
          z.(j) <- z.(j) +. delta;
          resid := !resid -. delta
        end
      end
      else if !resid < 0. then begin
        let delta = Float.min z.(j) (-. !resid) in
        if delta > 0. then begin
          z.(j) <- z.(j) -. delta;
          resid := !resid +. delta
        end
      end
    done;
  { assignment = z; objective = objective pieces z }

(* --- warm-started analytic water-filling --------------------------------

   The analytic path no longer bisects blindly: it runs a safeguarded
   Newton iteration on the residual [s(nu) = sum_j z_j(nu) - total],
   whose multiplier-space slope is [sum_j 1 / h_j''(z_j)] over the
   interior pieces (closed-form via {!Fn.curvature}).  The iteration is
   confined to a bracket [lo, hi] maintained exactly as the old
   bisection did, so every safeguard degenerates to the legacy
   behaviour; the plateau interpolation and drift repair epilogues are
   unchanged.

   The [sweep] record makes the solve *amortised* along a grid line:
   [h_j(z) = x_j f(load z / x_j)] has derivative [load f'(load z / x_j)],
   non-increasing in the capacity [x_j], and a cap [u_j] non-decreasing
   in it — so the response sum is pointwise non-decreasing in capacity
   and the optimal multiplier is non-increasing along a line of
   non-decreasing capacities.  The final upper bracket of one cell is
   therefore a valid (and usually razor-thin) upper bracket for every
   later cell of the line: the next solve starts by probing it and the
   Newton step lands at the root almost immediately.  The record also
   caches the endpoint derivatives of pieces that are physically reused
   between cells (a line fill mutates only the swept axis's piece). *)

(* Every grid cell of a layer fill runs [sweep_solve_seeded].  Nothing on
   a cell's path allocates, calls a closure, calls into another module or
   touches an atomic, and neither does building the pieces it reads
   ({!table_build}) when the layer's costs are power or quadratic
   curves.  Without flambda, and with [-opaque] in the dev profile, a
   call into [Fn] is never inlined and boxes its float argument and
   result, so the solver keeps each piece's kernel constants (those of
   {!Fn.probe_kernel}) unboxed in per-slot arrays and evaluates the
   kernel families with {!Fn.eval}'s, {!Fn.deriv}'s and
   {!Fn.inv_deriv}'s own expressions.  Only active pieces of other
   families (affine, piecewise-linear and summed costs, which no
   built-in scenario produces) call into [Fn] per cell; a zero-capacity
   piece reads its value at 0 from the cache.  The work counters
   accumulate in the record and reach [Obs.Counter] only at
   {!sweep_finish}, which the layer fills call once per layer: a bump
   costs a [Domain.self] C call plus an atomic add. *)

(* A flat float record: its field is stored unboxed, where a float
   field of the mixed [sweep] record would box on every store. *)
type carried = {
  mutable nu_hi : float; (* upper multiplier bracket carried along a line; nan = cold *)
}

(* Kernel families, as a slot's [k_kind]. *)
let other = 0 (* no closed-form kernel: evaluate through [Fn] *)
let power = 1
let quad = 2

(* The sweep's pieces with their solver caches, one slot per piece,
   packed so that the floats stay unboxed and a cold solve makes four
   arrays: [nf] floats per slot in [sf] (at the offsets below), [ni]
   ints in [si], the piece's function in [fns], the assignment in [z].
   The kernel constants are {!Fn.probe_kernel}'s for a power piece
   (idle, coef, expo, scale, expo_inv, expo_m1, quarters) or a
   quadratic one (c0, c1, c2, inv_c2x2, c2x2). *)
let f_up = 0 (* cap *)
let f_d0 = 1 (* derivative at 0 *)
let f_dup = 2 (* derivative at the cap *)
let f_v0 = 3 (* value at 0; nan = not yet evaluated *)
let f_vup = 4 (* value at the cap; nan = not yet evaluated *)
let f_ka = 5 (* idle; c0 *)
let f_kb = 6 (* coef; c1 *)
let f_kc = 7 (* expo; c2 *)
let f_ks = 8 (* scale; inv_c2x2 *)
let f_ki = 9 (* expo_inv; c2x2 *)
let f_km = 10 (* expo_m1 *)
let f_zl = 11 (* response at the lower bracket *)
let f_zh = 12 (* response at the upper bracket *)
let nf = 13

let i_kind = 0 (* [other], [power] or [quad] *)
let i_quarters = 1
let i_inv = 2 (* 1 when the derivative inverts in closed form *)
let ni = 3

type sweep = {
  carry : carried;
  mutable calls : int; (* dispatch.calls not yet added to the counter *)
  mutable analytic : int; (* dispatch.analytic_solves likewise *)
  mutable newton : int; (* dispatch.newton_evals likewise *)
  mutable sf : float array;
  mutable si : int array;
  mutable fns : Fn.t array; (* the piece's cost; [scaled] for a table-built kernel piece *)
  mutable z : float array; (* final assignment *)
}

let[@inline] fget sw j f = sw.sf.((j * nf) + f)
let[@inline] fset sw j f v = sw.sf.((j * nf) + f) <- v
let[@inline] iget sw j i = sw.si.((j * ni) + i)
let[@inline] iset sw j i v = sw.si.((j * ni) + i) <- v

(* The function of a piece a table built from its kernel constants (the
   piece's own [Fn.t] is then never made); also the empty slot's. *)
let scaled = Fn.const 0.

(* Room for [d] slots, keeping the ones already filled. *)
let ensure_capacity sw d =
  let n = Array.length sw.z in
  if n < d then begin
    let sf = Array.make (d * nf) (-1.) and si = Array.make (d * ni) 0 in
    let fns = Array.make d scaled in
    if n > 0 then begin
      Array.blit sw.sf 0 sf 0 (n * nf);
      Array.blit sw.si 0 si 0 (n * ni);
      Array.blit sw.fns 0 fns 0 n
    end;
    sw.sf <- sf;
    sw.si <- si;
    sw.fns <- fns;
    sw.z <- Array.make d 0.
  end

let sweep ?(slots = 0) () =
  let sw =
    { carry = { nu_hi = nan }; calls = 0; analytic = 0; newton = 0; sf = [||]; si = [||];
      fns = [||]; z = [||] }
  in
  ensure_capacity sw slots;
  sw

let sweep_start sw = sw.carry.nu_hi <- nan

let sweep_multiplier sw = sw.carry.nu_hi

let sweep_finish sw =
  Obs.Counter.add c_calls sw.calls;
  Obs.Counter.add c_analytic sw.analytic;
  Obs.Counter.add c_newton sw.newton;
  sw.calls <- 0;
  sw.analytic <- 0;
  sw.newton <- 0

let set_kernel sw j ker =
  match ker with
  | Fn.Power_kernel { idle; coef; expo; scale; expo_inv; expo_m1; quarters } ->
      iset sw j i_kind power;
      fset sw j f_ka idle;
      fset sw j f_kb coef;
      fset sw j f_kc expo;
      fset sw j f_ks scale;
      fset sw j f_ki expo_inv;
      fset sw j f_km expo_m1;
      iset sw j i_quarters quarters
  | Fn.Quad_kernel { c0; c1; c2; inv_c2x2; c2x2 } ->
      iset sw j i_kind quad;
      fset sw j f_ka c0;
      fset sw j f_kb c1;
      fset sw j f_kc c2;
      fset sw j f_ks inv_c2x2;
      fset sw j f_ki c2x2
  | Fn.Generic_kernel -> iset sw j i_kind other

(* Slot [j] holds piece [p]: the caches a solve derives, with its
   values at 0 and at the cap left to the first use.  (A cold solve has
   checked the inverses itself; {!refresh} records them.) *)
let derive sw j p =
  fset sw j f_up p.upper;
  fset sw j f_d0 (Fn.deriv p.fn 0.);
  fset sw j f_dup (Fn.deriv p.fn p.upper);
  fset sw j f_v0 nan;
  fset sw j f_vup nan;
  sw.fns.(j) <- p.fn;
  set_kernel sw j (Fn.probe_kernel p.fn)

(* The piece in slot [j], as a [piece] record: for the numeric route,
   which evaluates through [Fn].  A table-built kernel piece becomes the
   very function [Fn.compose_scaled] would have made. *)
let piece_of_slot sw j =
  let upper = fget sw j f_up in
  if sw.fns.(j) != scaled then { fn = sw.fns.(j); upper }
  else
    let family = if iget sw j i_kind = power then `Power else `Quadratic in
    { fn = Fn.of_coefficients family (fget sw j f_ka) (fget sw j f_kb) (fget sw j f_kc); upper }

(* Bring the slots up to date with [pieces] and report whether every
   active piece inverts its derivative in closed form.  A slot's caches
   are invariants of (fn, upper), so a piece physically shared with the
   previous call (a line's fixed prefix) keeps them. *)
let refresh sw pieces =
  let d = Array.length pieces in
  ensure_capacity sw d;
  let invertible = ref true in
  for j = 0 to d - 1 do
    let p = pieces.(j) in
    if not (sw.fns.(j) == p.fn && fget sw j f_up = p.upper) then begin
      derive sw j p;
      iset sw j i_inv (Bool.to_int (Fn.has_inv_deriv p.fn))
    end;
    if p.upper > 0. && iget sw j i_inv = 0 then invertible := false
  done;
  !invertible

(* A table of the pieces [h(z) = x f(load z / x)], capped at
   [min 1 (x cap / load)], of one cost function [f] over server counts
   [x], built once per layer.  An entry keeps what takes a [**] to
   derive: the cap, the derivatives and values at 0 and at the cap, and
   for a power or quadratic [f] the piece's coefficients, which are
   {!Fn.compose_scaled}'s (computed with its own expressions, as the
   caches are with {!Fn.deriv}'s and {!Fn.eval}'s), so building it
   allocates nothing: [tf] holds an entry's first [ne] slot floats
   (cap, derivatives, values and coefficients, at the slot offsets).
   {!sweep_seed} derives the rest of the kernel constants with
   {!Fn.probe_kernel}'s expressions, taking the ones that depend only
   on the exponent from [f]'s own kernel.  A piece of another family is
   built through [Fn], into [t_fns]. *)
let ne = f_kc + 1

type table = {
  tf : float array;
  t_kind : int array; (* [other], [power], [quad] or [zero]; -1 = unbuilt *)
  mutable t_fns : Fn.t array; (* [other] entries' pieces; empty until the first *)
  mutable base : Fn.t;
  mutable base_ker : Fn.probe_kernel;
  mutable quarters : int; (* [base_ker]'s, for a power [f] *)
  lc : float array; (* load, cap, and for a power [f] its expo_inv and expo_m1 *)
}

(* The entry of [x = 0]: {!zero_piece}. *)
let zero = 3

let zero_piece = { fn = Fn.const 0.; upper = 0. }

let table n =
  { tf = Array.make (n * ne) 0.;
    t_kind = Array.make n (-1);
    t_fns = [||];
    base = scaled;
    base_ker = Fn.Generic_kernel;
    quarters = 0;
    lc = [| 0.; 0.; 0.; 0. |] }

let table_clear t =
  Array.fill t.t_kind 0 (Array.length t.t_kind) (-1);
  Array.fill t.t_fns 0 (Array.length t.t_fns) scaled

let table_aim t f ~load ~cap =
  table_clear t;
  if not (f == t.base) then begin
    t.base <- f;
    t.base_ker <- Fn.probe_kernel f;
    match t.base_ker with
    | Fn.Power_kernel { expo_inv; expo_m1; quarters; _ } ->
        t.lc.(2) <- expo_inv;
        t.lc.(3) <- expo_m1;
        t.quarters <- quarters
    | Fn.Quad_kernel _ | Fn.Generic_kernel -> ()
  end;
  t.lc.(0) <- load;
  t.lc.(1) <- cap

let table_built t i = t.t_kind.(i) >= 0

let scaled_piece f ~x ~load ~cap =
  if x = 0 then zero_piece
  else begin
    let xf = float_of_int x in
    { fn = Fn.compose_scaled ~outer:xf ~inner:(load /. xf) f;
      upper = Float.min 1. (xf *. cap /. load) }
  end

(* Entry [i]'s cap, derivatives and values at 0 and at the cap, and
   coefficients. *)
let[@inline] set_entry t i ~up ~d0 ~dup ~v0 ~vup ~ka ~kb ~kc =
  let o = i * ne in
  t.tf.(o + f_up) <- up;
  t.tf.(o + f_d0) <- d0;
  t.tf.(o + f_dup) <- dup;
  t.tf.(o + f_v0) <- v0;
  t.tf.(o + f_vup) <- vup;
  t.tf.(o + f_ka) <- ka;
  t.tf.(o + f_kb) <- kb;
  t.tf.(o + f_kc) <- kc

let table_build t i x =
  let load = t.lc.(0) and cap = t.lc.(1) in
  let xf = float_of_int x in
  let inner = load /. xf in
  if x = 0 then begin
    (* [zero_piece]: its caches are all [0.]. *)
    set_entry t i ~up:0. ~d0:0. ~dup:0. ~v0:0. ~vup:0. ~ka:0. ~kb:0. ~kc:0.;
    t.t_kind.(i) <- zero
  end
  else
    match t.base_ker with
    | Fn.Power_kernel { idle; coef; expo; _ } when inner > 0. ->
        let upper = Float.min 1. (xf *. cap /. load) in
        let idle = xf *. idle and coef = xf *. coef *. (inner ** expo) in
        set_entry t i ~up:upper
          ~d0:(coef *. expo *. (0. ** (expo -. 1.)))
          ~dup:(coef *. expo *. (upper ** (expo -. 1.)))
          ~v0:(idle +. (coef *. (0. ** expo)))
          ~vup:(idle +. (coef *. (upper ** expo)))
          ~ka:idle ~kb:coef ~kc:expo;
        t.t_kind.(i) <- power
    | Fn.Quad_kernel { c0; c1; c2; _ } when inner > 0. ->
        let upper = Float.min 1. (xf *. cap /. load) in
        let c0 = xf *. c0 and c1 = xf *. c1 *. inner and c2 = xf *. c2 *. inner *. inner in
        let z = 0. in
        set_entry t i ~up:upper
          ~d0:(c1 +. (2. *. c2 *. z))
          ~dup:(c1 +. (2. *. c2 *. upper))
          ~v0:(c0 +. (c1 *. z) +. (c2 *. z *. z))
          ~vup:(c0 +. (c1 *. upper) +. (c2 *. upper *. upper))
          ~ka:c0 ~kb:c1 ~kc:c2;
        t.t_kind.(i) <- quad
    | Fn.Power_kernel _ | Fn.Quad_kernel _ | Fn.Generic_kernel ->
        let p = scaled_piece t.base ~x ~load ~cap in
        if Array.length t.t_fns = 0 then t.t_fns <- Array.make (Array.length t.t_kind) scaled;
        t.t_fns.(i) <- p.fn;
        set_entry t i ~up:p.upper ~d0:(Fn.deriv p.fn 0.) ~dup:(Fn.deriv p.fn p.upper)
          ~v0:(Fn.eval p.fn 0.) ~vup:(Fn.eval p.fn p.upper) ~ka:0. ~kb:0. ~kc:0.;
        t.t_kind.(i) <- other

let sweep_seed sw j t i =
  if not (table_built t i) then invalid_arg "Dispatch.sweep_seed: entry not built";
  ensure_capacity sw (j + 1);
  Array.blit t.tf (i * ne) sw.sf (j * nf) ne;
  let k = t.t_kind.(i) in
  if k = power || k = quad then begin
    let b = fget sw j f_kb and c = fget sw j f_kc in
    iset sw j i_kind k;
    iset sw j i_inv 1;
    sw.fns.(j) <- scaled;
    if k = quad then begin
      fset sw j f_ks (1. /. (2. *. c));
      fset sw j f_ki (2. *. c)
    end
    else begin
      fset sw j f_ks (1. /. (b *. c));
      fset sw j f_ki t.lc.(2);
      fset sw j f_km t.lc.(3);
      iset sw j i_quarters t.quarters
    end
  end
  else begin
    let f = if k = zero then zero_piece.fn else t.t_fns.(i) in
    sw.fns.(j) <- f;
    iset sw j i_inv (Bool.to_int (Fn.has_inv_deriv f));
    set_kernel sw j (Fn.probe_kernel f)
  end

(* [Float.min x y], bit for bit, for [y > 0.]: then only a NaN [x] or
   one below [y] is the minimum, whatever the signs of zero. *)
let[@inline] min_pos x y = if y > x || Float.is_nan x then x else y

(* [Float.min upper (Float.max 0. z)], bit for bit, for a cap
   [upper > 0] (a NaN cap fails the feasibility check first): plain
   comparisons that keep a NaN [z], without the stdlib's sign-bit C
   calls. *)
let[@inline] clamp_response upper z =
  let z = if z > 0. || Float.is_nan z then z else 0. in
  if z > upper then upper else z

(* {!Fn.eval} of slot [j]'s piece at [z], with its own expressions for
   the kernel families. *)
let[@inline] value_at sw j z =
  match iget sw j i_kind with
  | 1 (* power *) -> fget sw j f_ka +. (fget sw j f_kb *. (z ** fget sw j f_kc))
  | 2 (* quad *) -> fget sw j f_ka +. (fget sw j f_kb *. z) +. (fget sw j f_kc *. z *. z)
  | _ -> Fn.eval sw.fns.(j) z

(* Value of slot [j]'s piece at 0, evaluated at most once per cached
   piece. *)
let[@inline] value_at_0 sw j =
  if Float.is_nan (fget sw j f_v0) then fset sw j f_v0 (value_at sw j 0.);
  fget sw j f_v0

(* Response of slot [j] to multiplier [nu] through {!Fn.inv_deriv}'s
   own expressions, not the probe kernel's reciprocals: the epilogue
   after a probe loop that stopped without meeting the residual. *)
let[@inline] response sw j nu =
  let upper = fget sw j f_up in
  if upper <= 0. then 0.
  else if fget sw j f_d0 >= nu then 0.
  else if fget sw j f_dup <= nu then upper
  else
    clamp_response upper
      (match iget sw j i_kind with
      | 1 (* power *) ->
          let coef = fget sw j f_kb and expo = fget sw j f_kc in
          if nu <= 0. then 0. else (nu /. (coef *. expo)) ** (1. /. (expo -. 1.))
      | 2 (* quad *) ->
          let c1 = fget sw j f_kb and c2 = fget sw j f_kc in
          if c1 >= nu then 0. else (nu -. c1) /. (2. *. c2)
      | _ -> Fn.inv_deriv sw.fns.(j) nu)

(* Core analytic solve over the first [d] slots.  Leaves the optimal
   assignment in [sw.z] (first [d] entries), writes the objective to
   [dst.(di)] and updates the carried bracket with a multiplier upper
   bracket valid for any cell whose responses dominate this one's
   pointwise. *)
let waterfill_analytic sw d ~total dst di =
  let zs = sw.z in
  let nu_min = ref infinity and nu_max = ref neg_infinity in
  for j = 0 to d - 1 do
    if fget sw j f_up > 0. then begin
      if fget sw j f_d0 < !nu_min then nu_min := fget sw j f_d0;
      if fget sw j f_dup > !nu_max then nu_max := fget sw j f_dup
    end
  done;
  let lo = ref (!nu_min -. 1.) and hi = ref (!nu_max +. 1.) in
  (* A warm bracket from the previous (smaller) cell tightens the top;
     the bottom must come from this cell's own endpoint derivatives. *)
  let warm = sw.carry.nu_hi in
  if Float.is_finite warm && warm > !lo && warm < !hi then hi := warm;
  let nu_eps = tol *. 1e-3 in
  let resid_tol = nu_eps *. max1 total in
  let iters = ref 0 in
  let exact = ref nan in
  let sum = ref 0. and slope = ref 0. in
  (* Warm cells probe the inherited bracket first: its residual is tiny
     and the Newton step from it lands on the root.  Cold cells start
     at the midpoint, exactly like the old bisection. *)
  let next = ref (if Float.is_finite warm then !hi else 0.5 *. (!lo +. !hi)) in
  let continue_ = ref (Float.is_finite !next && !hi > !lo) in
  while !continue_ && !iters < 80 do
    incr iters;
    (* One probe: responses summed with the closed-form multiplier-space
       slope of the interior pieces (d nu / d z = h'', so the response
       slope is 1 / h''; flat stretches contribute a jump, not slope).
       Each response is recorded in [sw.z] as it is computed, so the
       common exit — the probe that meets the feasibility residual — is
       already the final assignment, with no second response pass. *)
    let nu = !next in
    sum := 0.;
    slope := 0.;
    for j = 0 to d - 1 do
      let upper = fget sw j f_up in
      let zj =
        if upper <= 0. then 0.
        else if fget sw j f_d0 >= nu then 0.
        else if fget sw j f_dup <= nu then upper
        else begin
          let curv = ref 0. in
          let zi =
            match iget sw j i_kind with
            | 1 (* power *) ->
                if nu <= 0. then 0.
                else begin
                  let x = nu *. fget sw j f_ks in
                  (* Quarter-power exponents take the sqrt-chain fast
                     path: x^(k/4) from at most two sqrts and two
                     multiplies (see [Fn.probe_kernel]). *)
                  let z =
                    match iget sw j i_quarters with
                    | 4 -> x
                    | 8 -> x *. x
                    | 2 -> sqrt x
                    | 6 -> x *. sqrt x
                    | 1 -> sqrt (sqrt x)
                    | 5 -> x *. sqrt (sqrt x)
                    | 3 ->
                        let r = sqrt x in
                        r *. sqrt r
                    | 7 ->
                        let r = sqrt x in
                        x *. r *. sqrt r
                    | _ -> x ** fget sw j f_ki
                  in
                  if z > 0. then curv := fget sw j f_km *. nu /. z;
                  z
                end
            | 2 (* quad *) ->
                curv := fget sw j f_ki;
                let c1 = fget sw j f_kb in
                if c1 >= nu then 0. else (nu -. c1) *. fget sw j f_ks
            | _ ->
                let c = ref 0. in
                let z = Fn.inv_deriv_curv sw.fns.(j) nu ~curv:c in
                curv := !c;
                z
          in
          if !curv > 0. then slope := !slope +. (1. /. !curv);
          clamp_response upper zi
        end
      in
      Array.unsafe_set zs j zj;
      sum := !sum +. zj
    done;
    if Float.abs (!sum -. total) <= resid_tol then begin
      exact := nu;
      continue_ := false
    end
    else begin
      if !sum < total then lo := nu else hi := nu;
      if !hi -. !lo <= nu_eps *. max1 (Float.abs !lo +. Float.abs !hi) then
        continue_ := false
      else begin
        let step = if !slope > 0. then nu -. ((!sum -. total) /. !slope) else nan in
        next := (if step > !lo && step < !hi then step else 0.5 *. (!lo +. !hi))
      end
    end
  done;
  sw.newton <- sw.newton + !iters;
  let z = sw.z in
  if Float.is_finite !exact then
    (* [z] already holds the exact probe's responses (the loop recorded
       them), so the assignment is done.  The probe met the constraint,
       so it brackets from whichever side; only a sum >= total makes it
       a sound upper bracket to carry. *)
    sw.carry.nu_hi <- (if !sum >= total then !exact else !hi)
  else begin
    let s_lo = ref 0. and s_hi = ref 0. in
    for j = 0 to d - 1 do
      let a = response sw j !lo and b = response sw j !hi in
      fset sw j f_zl a;
      fset sw j f_zh b;
      s_lo := !s_lo +. a;
      s_hi := !s_hi +. b
    done;
    if Float.abs (!s_hi -. !s_lo) <= tol then
      for j = 0 to d - 1 do
        z.(j) <- fget sw j f_zh
      done
    else begin
      (* A derivative plateau straddles the optimal multiplier: cost is
         linear along it, so linear interpolation is optimal.  The
         clamp to [0, 1] is [Util.Float_cmp.clamp]'s, bit for bit. *)
      let t = (total -. !s_lo) /. (!s_hi -. !s_lo) in
      let t = if t > 1. then 1. else t in
      let theta = if t > 0. || Float.is_nan t then t else 0. in
      for j = 0 to d - 1 do
        let zl = fget sw j f_zl in
        z.(j) <- zl +. (theta *. (fget sw j f_zh -. zl))
      done
    end;
    sw.carry.nu_hi <- !hi
  end;
  (* Repair any residual drift from the stopping tolerance. *)
  let sz = ref 0. in
  for j = 0 to d - 1 do
    sz := !sz +. z.(j)
  done;
  let resid = ref (total -. !sz) in
  if Float.abs !resid > 0. then
    for j = 0 to d - 1 do
      if !resid > 0. then begin
        let room = fget sw j f_up -. z.(j) in
        let delta = min_pos room !resid in
        if delta > 0. then begin
          z.(j) <- z.(j) +. delta;
          resid := !resid -. delta
        end
      end
      else if !resid < 0. then begin
        let delta = min_pos z.(j) (-. !resid) in
        if delta > 0. then begin
          z.(j) <- z.(j) -. delta;
          resid := !resid +. delta
        end
      end
    done;
  (* Objective; boundary values (z at 0 or at the cap — the common
     cases) come from the per-piece cache, evaluated at most once per
     cached piece.  Only genuinely interior assignments evaluate. *)
  let obj = ref 0. in
  for j = 0 to d - 1 do
    let zj = z.(j) and upper = fget sw j f_up in
    let v =
      if zj = 0. then value_at_0 sw j
      else if zj = upper then begin
        if Float.is_nan (fget sw j f_vup) then fset sw j f_vup (value_at sw j upper);
        fget sw j f_vup
      end
      else value_at sw j zj
    in
    obj := !obj +. v
  done;
  dst.(di) <- !obj

(* A cold solve's own scratch, sized to its pieces: no two solves share
   state, and the assignment it leaves in [z] is the caller's to keep. *)
let cold_sweep pieces =
  let sw = sweep ~slots:(Array.length pieces) () in
  Array.iteri (derive sw) pieces;
  sw

(* [solve], with [own] the caller's sweep ([None]: a fresh one, sized
   to [pieces], whose assignment the result keeps). *)
let solve_in ~numeric own pieces ~total =
  Obs.Counter.incr c_calls;
  if total < 0. then invalid_arg "Dispatch.solve: negative total";
  if not (feasible pieces ~total) then None
  else if total = 0. then begin
    let z = Array.map (fun _ -> 0.) pieces in
    Some { assignment = z; objective = objective pieces z }
  end
  else begin
    (* One active piece forces the assignment, whichever path follows. *)
    let nactive = ref 0 and last_active = ref (-1) in
    Array.iteri
      (fun j p ->
        if p.upper > 0. then begin
          incr nactive;
          last_active := j
        end)
      pieces;
    if !nactive = 1 then begin
      let z = Array.map (fun _ -> 0.) pieces in
      z.(!last_active) <- total;
      Some { assignment = z; objective = objective pieces z }
    end
    else if (not numeric) && Array.for_all (fun p -> p.upper <= 0. || Fn.has_inv_deriv p.fn) pieces
    then begin
      (* Every active piece inverts its derivative in closed form: one
         safeguarded Newton iteration on the multiplier, no nested 1-D
         searches.  Cold start (no line context). *)
      Obs.Counter.incr c_analytic;
      let sw =
        match own with
        | None -> cold_sweep pieces
        | Some sw ->
            ignore (refresh sw pieces : bool);
            sweep_start sw;
            sw
      in
      let d = Array.length pieces in
      let objective = [| 0. |] in
      waterfill_analytic sw d ~total objective 0;
      sweep_finish sw;
      let assignment = if Option.is_none own then sw.z else Array.sub sw.z 0 d in
      Some { assignment; objective = objective.(0) }
    end
    else begin
      match solve_few pieces ~total with
      | Some solution -> Some solution
      | None -> Some (waterfill pieces ~total)
    end
  end

let solve ?(numeric = false) pieces ~total = solve_in ~numeric None pieces ~total
let solve_with sw pieces ~total = solve_in ~numeric:false (Some sw) pieces ~total

(* A line cell over the first [d] slots, [invertible] when every active
   one inverts its derivative in closed form. *)
let solve_slots sw d ~invertible ~total dst di =
  sw.calls <- sw.calls + 1;
  if total < 0. then invalid_arg "Dispatch.sweep_solve: negative total";
  let cap = ref 0. in
  for j = 0 to d - 1 do
    cap := !cap +. fget sw j f_up
  done;
  if not (!cap +. (feas_eps *. max1 total) >= total) then dst.(di) <- infinity
  else begin
    let nactive = ref 0 and last_active = ref (-1) in
    if total > 0. then
      for j = 0 to d - 1 do
        if fget sw j f_up > 0. then begin
          incr nactive;
          last_active := j
        end
      done;
    if !nactive = 0 then begin
      (* A zero total, or feasible only through the tolerance:
         everything stays at 0. *)
      let acc = ref 0. in
      for j = 0 to d - 1 do
        acc := !acc +. value_at_0 sw j
      done;
      dst.(di) <- !acc
    end
    else if !nactive = 1 then begin
      let acc = ref 0. in
      for j = 0 to d - 1 do
        let v = if j = !last_active then value_at sw j total else value_at_0 sw j in
        acc := !acc +. v
      done;
      dst.(di) <- !acc
    end
    else if invertible then begin
      sw.analytic <- sw.analytic + 1;
      waterfill_analytic sw d ~total dst di
    end
    else begin
      (* Non-invertible pieces: [solve]'s golden-section / numeric
         route, which needs no scratch, so the warm chain survives. *)
      let pieces = Array.init d (piece_of_slot sw) in
      dst.(di) <-
        (match solve_few pieces ~total with
        | Some r -> r.objective
        | None -> (waterfill pieces ~total).objective)
    end
  end

let sweep_solve sw pieces ~total dst di =
  let invertible = refresh sw pieces in
  solve_slots sw (Array.length pieces) ~invertible ~total dst di

let sweep_solve_seeded sw ~d ~total dst di =
  let invertible = ref true in
  for j = 0 to d - 1 do
    if fget sw j f_up > 0. && iget sw j i_inv = 0 then invertible := false
  done;
  solve_slots sw d ~invertible:!invertible ~total dst di

let greedy ?(steps = 4096) pieces ~total =
  Obs.Counter.incr c_calls;
  if total < 0. then invalid_arg "Dispatch.greedy: negative total";
  if not (feasible pieces ~total) then None
  else if total = 0. then
    let z = Array.map (fun _ -> 0.) pieces in
    Some { assignment = z; objective = objective pieces z }
  else begin
    let d = Array.length pieces in
    let z = Array.make d 0. in
    let delta = total /. float_of_int steps in
    (* Each increment goes to the piece with the least marginal cost, which
       is optimal for convex pieces as steps -> infinity. *)
    for _ = 1 to steps do
      let best = ref (-1) and best_cost = ref infinity in
      for j = 0 to d - 1 do
        if z.(j) +. delta <= pieces.(j).upper +. (feas_eps *. Float.max 1. total) then begin
          let marginal = Fn.eval pieces.(j).fn (z.(j) +. delta) -. Fn.eval pieces.(j).fn z.(j) in
          if marginal < !best_cost then begin
            best := j;
            best_cost := marginal
          end
        end
      done;
      if !best >= 0 then z.(!best) <- z.(!best) +. delta
    done;
    (* Clamp tiny overshoot from the feasibility tolerance. *)
    Array.iteri (fun j _ -> z.(j) <- Float.min z.(j) pieces.(j).upper) pieces;
    Some { assignment = z; objective = objective pieces z }
  end

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

(* Every grid cell of a layer fill runs [sweep_solve].  Past the
   per-piece cache fills ({!table_set}, once per layer for each piece a
   layer uses), nothing on a cell's path allocates, calls a closure, calls
   into another module or touches an atomic.  Without flambda, and with
   [-opaque] in the dev profile, a call into [Fn] is never inlined and
   boxes its float argument and result, so the cell path evaluates the
   kernel families with {!Fn.eval}'s and {!Fn.inv_deriv}'s own
   expressions from the constants {!Fn.probe_kernel} carries.  Only
   active [Generic_kernel] pieces (affine, piecewise-linear and summed
   costs, which no built-in scenario produces) call into [Fn] per
   cell; a zero-capacity piece reads its value at 0 from the cache.
   The work counters accumulate in the record and reach [Obs.Counter]
   only at {!sweep_finish}, which the layer fills call once per layer:
   a bump costs a [Domain.self] C call plus an atomic add. *)

(* A flat float record: its field is stored unboxed, where a float
   field of the mixed [sweep] record would box on every store. *)
type carried = {
  mutable nu_hi : float; (* upper multiplier bracket carried along a line; nan = cold *)
}

type sweep = {
  carry : carried;
  mutable calls : int; (* dispatch.calls not yet added to the counter *)
  mutable analytic : int; (* dispatch.analytic_solves likewise *)
  mutable newton : int; (* dispatch.newton_evals likewise *)
  mutable d0 : float array; (* derivative at 0 per piece *)
  mutable dup : float array; (* derivative at the cap per piece *)
  mutable v0 : float array; (* value at 0 per piece; nan = not yet evaluated *)
  mutable vup : float array; (* value at the cap per piece; nan = not yet evaluated *)
  mutable z : float array; (* final assignment scratch *)
  mutable zl : float array; (* responses at the lower bracket *)
  mutable zh : float array; (* responses at the upper bracket *)
  mutable pker : Fn.probe_kernel array; (* pre-derived probe constants per piece *)
  mutable pinv : bool array; (* closed-form derivative inverse per piece *)
  mutable pfn : Fn.t array; (* piece identity for cache reuse *)
  mutable pup : float array;
}

let dummy_fn = Fn.const 0.

let sweep () =
  { carry = { nu_hi = nan };
    calls = 0;
    analytic = 0;
    newton = 0;
    d0 = [||];
    dup = [||];
    v0 = [||];
    vup = [||];
    z = [||];
    zl = [||];
    zh = [||];
    pker = [||];
    pinv = [||];
    pfn = [||];
    pup = [||] }

let ensure_capacity sw d =
  if Array.length sw.d0 < d then begin
    sw.d0 <- Array.make d 0.;
    sw.dup <- Array.make d 0.;
    sw.v0 <- Array.make d nan;
    sw.vup <- Array.make d nan;
    sw.z <- Array.make d 0.;
    sw.zl <- Array.make d 0.;
    sw.zh <- Array.make d 0.;
    sw.pker <- Array.make d Fn.Generic_kernel;
    sw.pinv <- Array.make d true;
    sw.pfn <- Array.make d dummy_fn;
    sw.pup <- Array.make d (-1.)
  end

let sweep_start sw = sw.carry.nu_hi <- nan

let sweep_multiplier sw = sw.carry.nu_hi

let sweep_finish sw =
  Obs.Counter.add c_calls sw.calls;
  Obs.Counter.add c_analytic sw.analytic;
  Obs.Counter.add c_newton sw.newton;
  sw.calls <- 0;
  sw.analytic <- 0;
  sw.newton <- 0

(* Bring the per-piece caches up to date with [pieces] and report
   whether every active piece inverts its derivative in closed form.
   The entries are invariants of (fn, upper), so a piece physically
   shared with the previous call (a line's fixed prefix) keeps them,
   and so does a slot {!sweep_seed} filled from a caller's table. *)
let refresh sw pieces =
  let d = Array.length pieces in
  ensure_capacity sw d;
  let invertible = ref true in
  for j = 0 to d - 1 do
    let p = pieces.(j) in
    if not (sw.pfn.(j) == p.fn && sw.pup.(j) = p.upper) then begin
      sw.d0.(j) <- Fn.deriv p.fn 0.;
      sw.dup.(j) <- Fn.deriv p.fn p.upper;
      sw.v0.(j) <- nan;
      sw.vup.(j) <- nan;
      sw.pker.(j) <- Fn.probe_kernel p.fn;
      sw.pinv.(j) <- Fn.has_inv_deriv p.fn;
      sw.pfn.(j) <- p.fn;
      sw.pup.(j) <- p.upper
    end;
    if p.upper > 0. && not sw.pinv.(j) then invertible := false
  done;
  !invertible

(* A table of pieces with the caches {!refresh} would derive for each,
   as parallel arrays so that the floats stay unboxed.  An entry's
   caches are exactly {!refresh}'s: its values at 0 and at the cap are
   {!Fn.eval}'s, which a lazy cache fill would compute too. *)
type table = {
  t_pieces : piece array;  (* [unbuilt] where no piece is set *)
  t_d0 : float array;
  t_dup : float array;
  t_v0 : float array;
  t_vup : float array;
  t_ker : Fn.probe_kernel array;
  t_inv : bool array;
}

let unbuilt = { fn = dummy_fn; upper = nan }

let table n =
  { t_pieces = Array.make n unbuilt;
    t_d0 = Array.make n 0.;
    t_dup = Array.make n 0.;
    t_v0 = Array.make n 0.;
    t_vup = Array.make n 0.;
    t_ker = Array.make n Fn.Generic_kernel;
    t_inv = Array.make n true }

let table_clear t =
  Array.fill t.t_pieces 0 (Array.length t.t_pieces) unbuilt;
  Array.fill t.t_ker 0 (Array.length t.t_ker) Fn.Generic_kernel
let table_built t i = t.t_pieces.(i) != unbuilt

let table_set t i p =
  t.t_pieces.(i) <- p;
  t.t_d0.(i) <- Fn.deriv p.fn 0.;
  t.t_dup.(i) <- Fn.deriv p.fn p.upper;
  t.t_v0.(i) <- Fn.eval p.fn 0.;
  t.t_vup.(i) <- Fn.eval p.fn p.upper;
  t.t_ker.(i) <- Fn.probe_kernel p.fn;
  t.t_inv.(i) <- Fn.has_inv_deriv p.fn

(* A slot that already holds the entry's piece, with its caches (by
   {!refresh}'s own test), is left as it is: consecutive lines often
   share a prefix piece. *)
let sweep_seed sw pieces j t i =
  let p = t.t_pieces.(i) in
  if p == unbuilt then invalid_arg "Dispatch.sweep_seed: entry not built";
  ensure_capacity sw (Array.length pieces);
  if not (pieces.(j) == p && sw.pfn.(j) == p.fn && sw.pup.(j) = p.upper) then begin
    pieces.(j) <- p;
    sw.d0.(j) <- t.t_d0.(i);
    sw.dup.(j) <- t.t_dup.(i);
    sw.v0.(j) <- t.t_v0.(i);
    sw.vup.(j) <- t.t_vup.(i);
    sw.pker.(j) <- t.t_ker.(i);
    sw.pinv.(j) <- t.t_inv.(i);
    sw.pfn.(j) <- p.fn;
    sw.pup.(j) <- p.upper
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

(* {!Fn.eval} of piece [j] at [z], with its own expressions for the
   kernel families. *)
let[@inline] value_at sw pieces j z =
  match Array.unsafe_get sw.pker j with
  | Fn.Power_kernel { idle; coef; expo; _ } -> idle +. (coef *. (z ** expo))
  | Fn.Quad_kernel { c0; c1; c2; _ } -> c0 +. (c1 *. z) +. (c2 *. z *. z)
  | Fn.Generic_kernel -> Fn.eval pieces.(j).fn z

(* Value of piece [j] at 0, evaluated at most once per cached piece. *)
let[@inline] value_at_0 sw pieces j =
  if Float.is_nan sw.v0.(j) then sw.v0.(j) <- Fn.eval pieces.(j).fn 0.;
  sw.v0.(j)

(* Response of piece [j] to multiplier [nu] through {!Fn.inv_deriv}'s
   own expressions, not the probe kernel's reciprocals: the epilogue
   after a probe loop that stopped without meeting the residual. *)
let[@inline] response sw pieces j nu =
  let upper = pieces.(j).upper in
  if upper <= 0. then 0.
  else if sw.d0.(j) >= nu then 0.
  else if sw.dup.(j) <= nu then upper
  else
    clamp_response upper
      (match Array.unsafe_get sw.pker j with
      | Fn.Power_kernel { coef; expo; _ } ->
          if nu <= 0. then 0. else (nu /. (coef *. expo)) ** (1. /. (expo -. 1.))
      | Fn.Quad_kernel { c1; c2; _ } -> if c1 >= nu then 0. else (nu -. c1) /. (2. *. c2)
      | Fn.Generic_kernel -> Fn.inv_deriv pieces.(j).fn nu)

(* Core analytic solve, over caches {!refresh} brought up to date.
   Leaves the optimal assignment in [sw.z] (first [d] entries), writes
   the objective to [dst.(di)] and updates the carried bracket with a
   multiplier upper bracket valid for any cell whose responses dominate
   this one's pointwise. *)
let waterfill_analytic sw pieces ~total dst di =
  let d = Array.length pieces in
  let d0 = sw.d0 and dup = sw.dup and pker = sw.pker and zs = sw.z in
  let nu_min = ref infinity and nu_max = ref neg_infinity in
  for j = 0 to d - 1 do
    if pieces.(j).upper > 0. then begin
      if d0.(j) < !nu_min then nu_min := d0.(j);
      if dup.(j) > !nu_max then nu_max := dup.(j)
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
      let p = pieces.(j) in
      let zj =
        if p.upper <= 0. then 0.
        else if d0.(j) >= nu then 0.
        else if dup.(j) <= nu then p.upper
        else begin
          let curv = ref 0. in
          let zi =
            match Array.unsafe_get pker j with
            | Fn.Power_kernel { scale; expo_inv; expo_m1; quarters; _ } ->
                if nu <= 0. then 0.
                else begin
                  let x = nu *. scale in
                  (* Quarter-power exponents take the sqrt-chain fast
                     path: x^(k/4) from at most two sqrts and two
                     multiplies (see [Fn.probe_kernel]). *)
                  let z =
                    match quarters with
                    | 4 -> x
                    | 8 -> x *. x
                    | 2 -> sqrt x
                    | 6 -> x *. sqrt x
                    | 1 -> sqrt (sqrt x)
                    | 5 -> x *. sqrt (sqrt x)
                    | 3 ->
                        let s = sqrt x in
                        s *. sqrt s
                    | 7 ->
                        let s = sqrt x in
                        x *. s *. sqrt s
                    | _ -> x ** expo_inv
                  in
                  if z > 0. then curv := expo_m1 *. nu /. z;
                  z
                end
            | Fn.Quad_kernel { c1; inv_c2x2; c2x2; _ } ->
                curv := c2x2;
                if c1 >= nu then 0. else (nu -. c1) *. inv_c2x2
            | Fn.Generic_kernel ->
                let c = ref 0. in
                let z = Fn.inv_deriv_curv p.fn nu ~curv:c in
                curv := !c;
                z
          in
          if !curv > 0. then slope := !slope +. (1. /. !curv);
          clamp_response p.upper zi
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
      let a = response sw pieces j !lo and b = response sw pieces j !hi in
      sw.zl.(j) <- a;
      sw.zh.(j) <- b;
      s_lo := !s_lo +. a;
      s_hi := !s_hi +. b
    done;
    if Float.abs (!s_hi -. !s_lo) <= tol then
      for j = 0 to d - 1 do
        z.(j) <- sw.zh.(j)
      done
    else begin
      (* A derivative plateau straddles the optimal multiplier: cost is
         linear along it, so linear interpolation is optimal.  The
         clamp to [0, 1] is [Util.Float_cmp.clamp]'s, bit for bit. *)
      let t = (total -. !s_lo) /. (!s_hi -. !s_lo) in
      let t = if t > 1. then 1. else t in
      let theta = if t > 0. || Float.is_nan t then t else 0. in
      for j = 0 to d - 1 do
        z.(j) <- sw.zl.(j) +. (theta *. (sw.zh.(j) -. sw.zl.(j)))
      done
    end;
    sw.carry.nu_hi <- !hi
  end;
  (* Repair any residual drift from the stopping tolerance. *)
  let s = ref 0. in
  for j = 0 to d - 1 do
    s := !s +. z.(j)
  done;
  let resid = ref (total -. !s) in
  if Float.abs !resid > 0. then
    for j = 0 to d - 1 do
      if !resid > 0. then begin
        let room = pieces.(j).upper -. z.(j) in
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
    let p = pieces.(j) in
    let zj = z.(j) in
    let v =
      if zj = 0. then value_at_0 sw pieces j
      else if zj = p.upper then begin
        if Float.is_nan sw.vup.(j) then sw.vup.(j) <- Fn.eval p.fn p.upper;
        sw.vup.(j)
      end
      else value_at sw pieces j zj
    in
    obj := !obj +. v
  done;
  dst.(di) <- !obj

(* A cold solve's own scratch, sized to its pieces: the caches
   {!refresh} derives for a fresh sweep, and only the arrays
   {!waterfill_analytic} reads.  No two solves share state, and the
   assignment it leaves in [z] is the caller's to keep. *)
let cold_sweep pieces =
  let d = Array.length pieces in
  let sw =
    { (sweep ()) with
      d0 = Array.make d 0.;
      dup = Array.make d 0.;
      v0 = Array.make d nan;
      vup = Array.make d nan;
      z = Array.make d 0.;
      zl = Array.make d 0.;
      zh = Array.make d 0.;
      pker = Array.make d Fn.Generic_kernel }
  in
  for j = 0 to d - 1 do
    let p = pieces.(j) in
    sw.d0.(j) <- Fn.deriv p.fn 0.;
    sw.dup.(j) <- Fn.deriv p.fn p.upper;
    sw.pker.(j) <- Fn.probe_kernel p.fn
  done;
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
      let objective = [| 0. |] in
      waterfill_analytic sw pieces ~total objective 0;
      sweep_finish sw;
      let assignment = if Option.is_none own then sw.z else Array.sub sw.z 0 (Array.length pieces) in
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

let sweep_solve sw pieces ~total dst di =
  sw.calls <- sw.calls + 1;
  if total < 0. then invalid_arg "Dispatch.sweep_solve: negative total";
  let invertible = refresh sw pieces in
  if not (feasible pieces ~total) then dst.(di) <- infinity
  else begin
    let nactive = ref 0 and last_active = ref (-1) in
    if total > 0. then
      for j = 0 to Array.length pieces - 1 do
        if pieces.(j).upper > 0. then begin
          incr nactive;
          last_active := j
        end
      done;
    if !nactive = 0 then begin
      (* A zero total, or feasible only through the tolerance:
         everything stays at 0. *)
      let acc = ref 0. in
      for j = 0 to Array.length pieces - 1 do
        acc := !acc +. value_at_0 sw pieces j
      done;
      dst.(di) <- !acc
    end
    else if !nactive = 1 then begin
      let acc = ref 0. in
      for j = 0 to Array.length pieces - 1 do
        let v =
          if j = !last_active then value_at sw pieces j total else value_at_0 sw pieces j
        in
        acc := !acc +. v
      done;
      dst.(di) <- !acc
    end
    else if invertible then begin
      sw.analytic <- sw.analytic + 1;
      waterfill_analytic sw pieces ~total dst di
    end
    else
      (* Non-invertible pieces: [solve]'s golden-section / numeric
         route, which needs no scratch, so the warm chain survives. *)
      dst.(di) <-
        (match solve_few pieces ~total with
        | Some s -> s.objective
        | None -> (waterfill pieces ~total).objective)
  end

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

(* Defunctionalised representation: a closed variant instead of a record
   of closures.  Every family the paper uses is closed under the
   combinators below (scaling, pointwise sum with an affine partner,
   idle shifts, and the dispatch composition [z -> outer * f(inner z)]),
   so the smart constructors normalise aggressively and the only
   residual combinator node is [Sum] of two non-constant leaves that do
   not fold (e.g. power + piecewise).  The payoff: [eval]/[deriv] are
   branch-on-tag arithmetic with no indirect calls, and [inv_deriv]
   solves [f'(z) = nu] in closed form for every family except
   [Max_affine] (and sums of two curved leaves), which the dispatch
   solver detects via [has_inv_deriv] and handles numerically.

   Normal-form invariants (maintained by the constructors, relied on by
   [inv_deriv] and [is_constant]):
   - [Affine]: [slope > 0] (a zero slope collapses to [Const]);
   - [Quadratic]: [c2 > 0] (else it is affine or constant);
   - [Power]: [coef > 0], [expo > 1], [expo <> 2] ([expo = 1] is affine,
     [expo = 2] is quadratic);
   - [Piecewise]: at least two breakpoints starting at [z = 0], slopes
     non-decreasing and not all equal (an all-equal-slope piecewise is
     affine);
   - [Max_affine]: at least two pieces, at least one positive slope
     (an all-flat max is the constant max of the intercepts);
   - [Sum]: neither side constant, and not a pair that folds
     (affine+affine, affine+quadratic, quadratic+quadratic). *)

type t =
  | Const of float
  | Affine of { intercept : float; slope : float }
  | Quadratic of { c0 : float; c1 : float; c2 : float }
  | Power of { idle : float; coef : float; expo : float }
  | Piecewise of { zs : float array; vs : float array; slopes : float array }
  | Max_affine of { intercepts : float array; slopes : float array }
  | Sum of t * t

(* Segment containing [z]: the last slope extends beyond the final
   breakpoint, mirroring the constructor's contract. *)
let segment zs z =
  let n = Array.length zs in
  let rec go i = if i >= n - 2 || z < zs.(i + 1) then i else go (i + 1) in
  go 0

let rec eval f z =
  match f with
  | Const c -> c
  | Affine { intercept; slope } -> intercept +. (slope *. z)
  | Quadratic { c0; c1; c2 } -> c0 +. (c1 *. z) +. (c2 *. z *. z)
  | Power { idle; coef; expo } -> idle +. (coef *. (z ** expo))
  | Piecewise { zs; vs; slopes } ->
      let i = segment zs z in
      vs.(i) +. (slopes.(i) *. (z -. zs.(i)))
  | Max_affine { intercepts; slopes } ->
      let best = ref neg_infinity in
      for k = 0 to Array.length slopes - 1 do
        let v = intercepts.(k) +. (slopes.(k) *. z) in
        if v > !best then best := v
      done;
      !best
  | Sum (a, b) -> eval a z +. eval b z

let rec deriv f z =
  match f with
  | Const _ -> 0.
  | Affine { slope; _ } -> slope
  | Quadratic { c1; c2; _ } -> c1 +. (2. *. c2 *. z)
  | Power { coef; expo; _ } -> coef *. expo *. (z ** (expo -. 1.))
  | Piecewise { zs; slopes; _ } -> slopes.(segment zs z)
  | Max_affine { intercepts; slopes } ->
      (* Derivative of the active piece; at ties pick the largest slope,
         which lies between the one-sided derivatives required by KKT. *)
      let v = eval f z in
      let acc = ref 0. in
      for k = 0 to Array.length slopes - 1 do
        if Float.abs (intercepts.(k) +. (slopes.(k) *. z) -. v) <= 1e-12 *. Float.max 1. v
        then acc := Float.max !acc slopes.(k)
      done;
      !acc
  | Sum (a, b) -> deriv a z +. deriv b z

(* Second derivative, closed-form.  Piecewise-affine families are flat
   between kinks (the kinks themselves contribute response jumps, not
   slope, so 0 is the value the Newton safeguard wants there). *)
let rec curvature f z =
  match f with
  | Const _ | Affine _ | Piecewise _ | Max_affine _ -> 0.
  | Quadratic { c2; _ } -> 2. *. c2
  | Power { coef; expo; _ } -> coef *. expo *. (expo -. 1.) *. (z ** (expo -. 2.))
  | Sum (a, b) -> curvature a z +. curvature b z

(* The derivative is constant exactly for [Const] and [Affine] leaves;
   knowing it lets [inv_deriv] peel such terms off a [Sum]. *)
let const_slope = function
  | Const _ -> Some 0.
  | Affine { slope; _ } -> Some slope
  | Quadratic _ | Power _ | Piecewise _ | Max_affine _ | Sum _ -> None

let rec inv_deriv f nu =
  match f with
  | Const _ -> if nu >= 0. then infinity else 0.
  | Affine { slope; _ } -> if slope <= nu then infinity else 0.
  | Quadratic { c1; c2; _ } -> if c1 >= nu then 0. else (nu -. c1) /. (2. *. c2)
  | Power { coef; expo; _ } ->
      if nu <= 0. then 0. else (nu /. (coef *. expo)) ** (1. /. (expo -. 1.))
  | Piecewise { zs; slopes; _ } ->
      let n = Array.length slopes in
      let rec find i =
        if i >= n then infinity else if slopes.(i) > nu then zs.(i) else find (i + 1)
      in
      find 0
  | Max_affine _ -> nan
  | Sum (a, b) -> (
      match const_slope a with
      | Some s -> inv_deriv b (nu -. s)
      | None -> (
          match const_slope b with Some s -> inv_deriv a (nu -. s) | None -> nan))

(* Fused response probe: [inv_deriv f nu] with the curvature at that
   point written to [curv], sharing the single [**] the power-law
   family needs — at the response, [z^(expo-1) = nu / (coef expo)], so
   [f''(z) = coef expo (expo-1) z^(expo-2) = (expo-1) nu / z] with no
   second power evaluation.  Families with flat or constant second
   derivative report it directly. *)
let rec inv_deriv_curv f nu ~curv =
  match f with
  | Const _ ->
      curv := 0.;
      if nu >= 0. then infinity else 0.
  | Affine { slope; _ } ->
      curv := 0.;
      if slope <= nu then infinity else 0.
  | Quadratic { c1; c2; _ } ->
      curv := 2. *. c2;
      if c1 >= nu then 0. else (nu -. c1) /. (2. *. c2)
  | Power { coef; expo; _ } ->
      if nu <= 0. then begin
        curv := 0.;
        0.
      end
      else begin
        let z = (nu /. (coef *. expo)) ** (1. /. (expo -. 1.)) in
        curv := (if z > 0. then (expo -. 1.) *. nu /. z else 0.);
        z
      end
  | Piecewise _ ->
      curv := 0.;
      inv_deriv f nu
  | Max_affine _ ->
      curv := 0.;
      nan
  | Sum (a, b) -> (
      match const_slope a with
      | Some s -> inv_deriv_curv b (nu -. s) ~curv
      | None -> (
          match const_slope b with
          | Some s -> inv_deriv_curv a (nu -. s) ~curv
          | None ->
              curv := 0.;
              nan))

(* Pre-derived probe constants: the dispatch solver's Newton loop
   probes the same piece at many multipliers, so the per-family
   reciprocals are hoisted out of the loop.  [Power_kernel] responds
   with [(nu * scale) ^ expo_inv] and curvature [expo_m1 * nu / z]
   (reciprocal-multiplied, so the last few ulps may differ from
   [inv_deriv]'s division — irrelevant at the solver's tolerance).
   [quarters] classifies the inverse exponent: when [expo_inv] is a
   small multiple of 1/4 — which covers the power-model exponents the
   literature actually uses, [expo] in {5, 3, 7/3, 2, 9/5, 5/3, 1.5}
   — the response is a chain of [sqrt]s and multiplies instead of a
   [**], which is several times cheaper per probe.  Both kernels also
   carry the family's own coefficients, so the solver evaluates [eval]
   and [inv_deriv] of a piece with the same expressions as this module
   without a call into it. *)
type probe_kernel =
  | Power_kernel of {
      idle : float;
      coef : float;
      expo : float;
      scale : float;
      expo_inv : float;
      expo_m1 : float;
      quarters : int;  (* k when expo_inv = k/4 with 1 <= k <= 8, else 0 *)
    }
  | Quad_kernel of { c0 : float; c1 : float; c2 : float; inv_c2x2 : float; c2x2 : float }
  | Generic_kernel

let probe_kernel f =
  match f with
  | Power { idle; coef; expo } ->
      let expo_inv = 1. /. (expo -. 1.) in
      let k4 = 4. *. expo_inv in
      let k = Float.round k4 in
      let quarters =
        (* [1e-12] relative: the snapped exponent [k/4] then differs
           from [expo_inv] by less than an ulp of the response. *)
        if k >= 1. && k <= 8. && Float.abs (k4 -. k) <= 1e-12 *. k then
          int_of_float k
        else 0
      in
      Power_kernel
        { idle; coef; expo; scale = 1. /. (coef *. expo); expo_inv; expo_m1 = expo -. 1.; quarters }
  | Quadratic { c0; c1; c2 } ->
      Quad_kernel { c0; c1; c2; inv_c2x2 = 1. /. (2. *. c2); c2x2 = 2. *. c2 }
  | Const _ | Affine _ | Piecewise _ | Max_affine _ | Sum _ -> Generic_kernel

let rec has_inv_deriv = function
  | Const _ | Affine _ | Quadratic _ | Power _ | Piecewise _ -> true
  | Max_affine _ -> false
  | Sum (a, b) -> (
      match const_slope a with
      | Some _ -> has_inv_deriv b
      | None -> (
          match const_slope b with Some _ -> has_inv_deriv a | None -> false))

let is_constant = function
  | Const _ -> true
  | Affine _ | Quadratic _ | Power _ | Piecewise _ | Max_affine _ | Sum _ -> false

let rec describe = function
  | Const c -> Printf.sprintf "const %.3g" c
  | Affine { intercept; slope } -> Printf.sprintf "%.3g + %.3g z" intercept slope
  | Quadratic { c0; c1; c2 } -> Printf.sprintf "%.3g + %.3g z + %.3g z^2" c0 c1 c2
  | Power { idle; coef; expo } -> Printf.sprintf "%.3g + %.3g z^%.3g" idle coef expo
  | Piecewise { zs; _ } -> Printf.sprintf "piecewise-linear (%d points)" (Array.length zs)
  | Max_affine { slopes; _ } ->
      Printf.sprintf "max of %d affine pieces" (Array.length slopes)
  | Sum (a, b) -> Printf.sprintf "(%s) + (%s)" (describe a) (describe b)

(* --- constructors ----------------------------------------------------- *)

let check_nonneg name x =
  if x < 0. || Float.is_nan x then
    invalid_arg (Printf.sprintf "Convex.Fn: %s must be non-negative" name)

let const c =
  check_nonneg "const" c;
  Const c

let affine ~intercept ~slope =
  check_nonneg "intercept" intercept;
  check_nonneg "slope" slope;
  if slope = 0. then Const intercept else Affine { intercept; slope }

let quadratic ~c0 ~c1 ~c2 =
  check_nonneg "c0" c0;
  check_nonneg "c1" c1;
  check_nonneg "c2" c2;
  if c2 = 0. then affine ~intercept:c0 ~slope:c1 else Quadratic { c0; c1; c2 }

let power ~idle ~coef ~expo =
  check_nonneg "idle" idle;
  check_nonneg "coef" coef;
  if expo < 1. then invalid_arg "Convex.Fn.power: expo must be >= 1";
  if coef = 0. then Const idle
  else if expo = 1. then affine ~intercept:idle ~slope:coef
  else if expo = 2. then Quadratic { c0 = idle; c1 = 0.; c2 = coef }
  else Power { idle; coef; expo }

let piecewise_repr ~zs ~vs ~slopes =
  (* All-equal slopes describe a global affine function (the last slope
     extends past the end, so the collapse is exact everywhere). *)
  if Array.for_all (fun s -> s = slopes.(0)) slopes then
    affine ~intercept:vs.(0) ~slope:slopes.(0)
  else Piecewise { zs; vs; slopes }

let piecewise_linear points =
  (match points with
  | [] | [ _ ] -> invalid_arg "Convex.Fn.piecewise_linear: need >= 2 points"
  | (z0, _) :: _ when z0 <> 0. ->
      invalid_arg "Convex.Fn.piecewise_linear: first point must be at z = 0"
  | _ -> ());
  let pts = Array.of_list points in
  let n = Array.length pts in
  let slopes = Array.make (n - 1) 0. in
  for i = 0 to n - 2 do
    let z0, v0 = pts.(i) and z1, v1 = pts.(i + 1) in
    if z1 <= z0 then invalid_arg "Convex.Fn.piecewise_linear: z not increasing";
    slopes.(i) <- (v1 -. v0) /. (z1 -. z0);
    if slopes.(i) < 0. then
      invalid_arg "Convex.Fn.piecewise_linear: function must be increasing";
    if i > 0 && slopes.(i) < slopes.(i - 1) -. 1e-12 then
      invalid_arg "Convex.Fn.piecewise_linear: slopes must be non-decreasing"
  done;
  if snd pts.(0) < 0. then invalid_arg "Convex.Fn.piecewise_linear: negative value";
  piecewise_repr ~zs:(Array.map fst pts) ~vs:(Array.map snd pts) ~slopes

let max_affine_repr ~intercepts ~slopes =
  let n = Array.length slopes in
  if Array.for_all (fun s -> s = 0.) slopes then
    (* Flat pieces: the max is the constant max of the intercepts. *)
    Const (Array.fold_left Float.max neg_infinity intercepts)
  else if n = 1 then affine ~intercept:intercepts.(0) ~slope:slopes.(0)
  else Max_affine { intercepts; slopes }

let max_affine pieces =
  if pieces = [] then invalid_arg "Convex.Fn.max_affine: empty";
  List.iter
    (fun (i, s) ->
      check_nonneg "intercept" i;
      check_nonneg "slope" s)
    pieces;
  max_affine_repr
    ~intercepts:(Array.of_list (List.map fst pieces))
    ~slopes:(Array.of_list (List.map snd pieces))

(* --- combinators ------------------------------------------------------ *)

let rec shift_idle c f =
  check_nonneg "shift" c;
  if c = 0. then f
  else
    match f with
    | Const a -> Const (a +. c)
    | Affine a -> Affine { a with intercept = a.intercept +. c }
    | Quadratic q -> Quadratic { q with c0 = q.c0 +. c }
    | Power p -> Power { p with idle = p.idle +. c }
    | Piecewise { zs; vs; slopes } ->
        Piecewise { zs; vs = Array.map (fun v -> v +. c) vs; slopes }
    | Max_affine { intercepts; slopes } ->
        Max_affine { intercepts = Array.map (fun i -> i +. c) intercepts; slopes }
    | Sum (a, b) -> Sum (shift_idle c a, b)

let rec scale k f =
  check_nonneg "scale" k;
  if k = 0. then Const 0.
  else
    match f with
    | Const a -> Const (k *. a)
    | Affine { intercept; slope } ->
        Affine { intercept = k *. intercept; slope = k *. slope }
    | Quadratic { c0; c1; c2 } ->
        Quadratic { c0 = k *. c0; c1 = k *. c1; c2 = k *. c2 }
    | Power p -> Power { p with idle = k *. p.idle; coef = k *. p.coef }
    | Piecewise { zs; vs; slopes } ->
        Piecewise
          { zs;
            vs = Array.map (fun v -> k *. v) vs;
            slopes = Array.map (fun s -> k *. s) slopes }
    | Max_affine { intercepts; slopes } ->
        Max_affine
          { intercepts = Array.map (fun i -> k *. i) intercepts;
            slopes = Array.map (fun s -> k *. s) slopes }
    | Sum (a, b) -> Sum (scale k a, scale k b)

let rec add f g =
  match (f, g) with
  | Const a, g -> shift_idle a g
  | f, Const b -> shift_idle b f
  | Affine a, Affine b ->
      Affine { intercept = a.intercept +. b.intercept; slope = a.slope +. b.slope }
  | Affine a, Quadratic q | Quadratic q, Affine a ->
      Quadratic { q with c0 = q.c0 +. a.intercept; c1 = q.c1 +. a.slope }
  | Quadratic a, Quadratic b ->
      Quadratic { c0 = a.c0 +. b.c0; c1 = a.c1 +. b.c1; c2 = a.c2 +. b.c2 }
  | Sum (a, b), g -> add a (add b g)
  | f, g -> Sum (f, g)

let rec compose_scaled ~outer ~inner f =
  check_nonneg "outer" outer;
  check_nonneg "inner" inner;
  if outer = 0. then Const 0.
  else if inner = 0. then Const (outer *. eval f 0.)
  else
    match f with
    | Const a -> Const (outer *. a)
    | Affine { intercept; slope } ->
        Affine { intercept = outer *. intercept; slope = outer *. slope *. inner }
    | Quadratic { c0; c1; c2 } ->
        Quadratic
          { c0 = outer *. c0;
            c1 = outer *. c1 *. inner;
            c2 = outer *. c2 *. inner *. inner }
    | Power { idle; coef; expo } ->
        Power { idle = outer *. idle; coef = outer *. coef *. (inner ** expo); expo }
    | Piecewise { zs; vs; slopes } ->
        Piecewise
          { zs = Array.map (fun z -> z /. inner) zs;
            vs = Array.map (fun v -> outer *. v) vs;
            slopes = Array.map (fun s -> outer *. s *. inner) slopes }
    | Max_affine { intercepts; slopes } ->
        Max_affine
          { intercepts = Array.map (fun i -> outer *. i) intercepts;
            slopes = Array.map (fun s -> outer *. s *. inner) slopes }
    | Sum (a, b) -> add (compose_scaled ~outer ~inner a) (compose_scaled ~outer ~inner b)

(* --- sampling checks -------------------------------------------------- *)

let sample_grid ~lo ~hi n =
  Array.init n (fun i -> lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))

let check_convex ?(samples = 64) ~lo ~hi f =
  let zs = sample_grid ~lo ~hi samples in
  let ok = ref true in
  for i = 0 to samples - 3 do
    let a = eval f zs.(i) and b = eval f zs.(i + 1) and c = eval f zs.(i + 2) in
    (* Midpoint convexity on an even grid: b <= (a + c) / 2 + tolerance. *)
    if b > ((a +. c) /. 2.) +. (1e-9 *. Float.max 1. (Float.abs b)) then ok := false
  done;
  !ok

let check_increasing ?(samples = 64) ~lo ~hi f =
  let zs = sample_grid ~lo ~hi samples in
  let ok = ref true in
  for i = 0 to samples - 2 do
    let a = eval f zs.(i) and b = eval f zs.(i + 1) in
    if b < a -. (1e-9 *. Float.max 1. (Float.abs a)) then ok := false
  done;
  !ok

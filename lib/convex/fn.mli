(** Convex, increasing, non-negative operating-cost functions.

    The paper models the energy cost of one server of type [j] running
    with load [z] as a convex increasing non-negative function
    [f_{t,j}(z)] (Section 1).  This module provides the concrete function
    representations used everywhere: evaluation, a closed-form
    derivative, and the closed-form derivative inverse exploited by the
    dispatch solver's KKT water-filling.  Smart constructors cover the
    families the paper discusses — constant (load-independent costs of
    [5]), affine, power-law [idle + coef * z^expo] (the standard
    dynamic-power model of [6, 32]), quadratic, piecewise linear, and
    max-of-affine.

    Internally a function is a concrete variant, not a record of
    closures: the combinators ({!scale}, {!add}, {!shift_idle},
    {!compose_scaled}) normalise into the same leaf families wherever
    algebra allows (every family is closed under affine pre/post
    composition), so the hot-path [eval]/[deriv]/[inv_deriv] are
    branch-on-tag arithmetic with no indirect calls or allocation. *)

type t
(** An immutable scalar function with convexity metadata. *)

val eval : t -> float -> float
(** [eval f z] is [f(z)].  Defined for all [z >= 0]. *)

val deriv : t -> float -> float
(** [deriv f z] is the derivative at [z] — closed-form when the
    constructor provides one, otherwise a central finite difference.
    At kinks of piecewise functions it returns a value between the
    one-sided derivatives, which is all the KKT solver requires. *)

val curvature : t -> float -> float
(** [curvature f z] is the second derivative [f''(z)], closed-form for
    every family: [0] for (piecewise-)affine functions (kinks carry no
    slope), [2 c2] for quadratics, [coef expo (expo-1) z^(expo-2)] for
    powers, and the sum for {!add}ed terms.  The dispatch solver's
    safeguarded Newton iteration uses [1 / f''] as the multiplier-space
    slope of the response [z_j(nu)]; a zero curvature simply withholds
    the Newton step and the iteration bisects instead. *)

val inv_deriv : t -> float -> float
(** [inv_deriv f nu] solves [f'(z) = nu] in closed form:
    [sup { z >= 0 | f'(z) <= nu }], which may be [0.] (when
    [f'(0) >= nu] for families with constant or right-continuous
    derivative at the origin) or [infinity] (when the derivative never
    exceeds [nu]).  Returns [nan] when no closed form exists
    ({!max_affine}, or sums of two curved terms) — test with
    {!has_inv_deriv} first.  The dispatch solver only calls it with
    [f'(lo) < nu < f'(hi)], where the crossing is interior and the
    boundary conventions are irrelevant. *)

val inv_deriv_curv : t -> float -> curv:float ref -> float
(** {!inv_deriv} fused with {!curvature} at the returned point, written
    to [curv]: the power-law family derives the curvature from the
    response identity [z^(expo-1) = nu / (coef expo)] instead of a
    second power evaluation, halving the cost of the dispatch solver's
    Newton probes.  [curv] receives [0.] whenever the response is a
    boundary or the family is (piecewise-)affine. *)

type probe_kernel =
  | Power_kernel of {
      idle : float;
      coef : float;
      expo : float;
      scale : float;
      expo_inv : float;
      expo_m1 : float;
      quarters : int;
    }
      (** the power family [idle + coef z^expo]: response
          [(nu * scale) ^ expo_inv], curvature [expo_m1 * nu / z].
          [quarters = k] marks inverse exponents that are small
          multiples of a quarter ([expo_inv = k/4], [1 <= k <= 8]) —
          these cover the standard dynamic-power exponents ([expo] in
          [{5, 3, 7/3, 2, 9/5, 5/3, 3/2}]) and evaluate as a chain of
          [sqrt]s and multiplies instead of [Float.pow]; [0] means no
          such form. *)
  | Quad_kernel of { c0 : float; c1 : float; c2 : float; inv_c2x2 : float; c2x2 : float }
      (** the quadratic [c0 + c1 z + c2 z^2]: response
          [(nu - c1) * inv_c2x2] (or [0] below [c1]), curvature
          [c2x2] *)
  | Generic_kernel  (** fall back to {!inv_deriv_curv} and {!eval} *)

val probe_kernel : t -> probe_kernel
(** Pre-derived constants for the dispatch solver's probe loop — the
    per-family reciprocals hoisted out of the Newton iteration.  The
    probe responses use reciprocal multiplication, so they may differ
    from {!inv_deriv} in the last few ulps.  The family's own
    coefficients ride along: [idle +. (coef *. (z ** expo))] and
    [c0 +. (c1 *. z) +. (c2 *. z *. z)] are exactly {!eval}'s
    expressions, so a caller that evaluates them itself gets {!eval}'s
    bits without a cross-module call. *)

val of_coefficients : [ `Power | `Quadratic ] -> float -> float -> float -> t
(** [of_coefficients `Power idle coef expo] (resp. [`Quadratic c0 c1 c2])
    is the function with exactly these coefficients, unnormalised: the
    one whose {!probe_kernel} carries them.  For rebuilding a piece from
    the kernel constants a dispatch table computed in place of
    {!compose_scaled}. *)

val has_inv_deriv : t -> bool
(** Whether {!inv_deriv} returns a closed form ([nan]-free) for this
    function. *)

val describe : t -> string
(** Human-readable description for logs and tables. *)

val is_constant : t -> bool
(** Recognises load-independent functions ([const]), enabling the
    [g_t(x) = sum_j l_j x_j] fast path of the special case studied
    in [5]. *)

(** {1 Constructors} *)

val const : float -> t
(** [const c] is [fun _ -> c] with [c >= 0]. *)

val affine : intercept:float -> slope:float -> t
(** [affine ~intercept ~slope] is [z -> intercept + slope * z]; both
    coefficients must be non-negative to keep the function increasing. *)

val power : idle:float -> coef:float -> expo:float -> t
(** [power ~idle ~coef ~expo] is [z -> idle + coef * z^expo] with
    [idle, coef >= 0] and [expo >= 1] (convexity). *)

val quadratic : c0:float -> c1:float -> c2:float -> t
(** [z -> c0 + c1 z + c2 z^2] with all coefficients non-negative. *)

val piecewise_linear : (float * float) list -> t
(** [piecewise_linear points] interpolates the given [(z, value)] points
    (sorted by [z], starting at [z = 0]) and extends the last segment's
    slope beyond the final point.  The points must describe a convex
    increasing function; raises [Invalid_argument] otherwise. *)

val max_affine : (float * float) list -> t
(** [max_affine pieces] is [z -> max_i (intercept_i + slope_i * z)] over
    a non-empty list of [(intercept, slope)] pairs with non-negative
    slopes — always convex; increasing when evaluated on [z >= 0] with
    non-negative slopes. *)

(** {1 Combinators} *)

val scale : float -> t -> t
(** [scale k f] is [z -> k * f(z)] for [k >= 0].  Used by algorithm C's
    sub-slot division [f~_{u,j} = f_{t,j} / n~_t]. *)

val add : t -> t -> t
(** Pointwise sum (convexity is preserved). *)

val shift_idle : float -> t -> t
(** [shift_idle c f] is [z -> c + f(z)], adjusting the idle cost. *)

val compose_scaled : outer:float -> inner:float -> t -> t
(** [compose_scaled ~outer ~inner f] is [z -> outer * f(inner * z)] with
    [outer, inner >= 0] — exactly the dispatch piece
    [h_j(z) = x_j f_{t,j}(lambda_t z / x_j)] of equation (1) when
    [outer = x_j] and [inner = lambda_t / x_j].  Convexity and
    monotonicity are preserved. *)

(** {1 Sampling checks (used by the property tests)} *)

val check_convex : ?samples:int -> lo:float -> hi:float -> t -> bool
(** Midpoint-convexity check on an even sample grid. *)

val check_increasing : ?samples:int -> lo:float -> hi:float -> t -> bool
(** Monotonicity check on an even sample grid. *)

(** Online algorithm C (paper, Section 3.2): [(2d + 1 + eps)]-competitive
    for any [eps > 0] with time-dependent operating costs.

    Each original slot [t] is divided into [n~_t = ceil((d / eps) *
    max_j l_{t,j} / beta_j)] sub-slots (at least one) carrying the scaled
    costs [f~ = f_{t,j} / n~_t]; algorithm B runs on the refined instance
    [I~], which drives its constant [c(I~)] below [eps] (eq. (16)).  The
    final schedule picks, per original slot, the sub-slot configuration
    with the smallest operating cost ([mu(t)]), which by Lemma 14 never
    increases the cost. *)

type result = {
  schedule : Model.Schedule.t;      (** [X^C], on the original instance *)
  sub_schedule : Model.Schedule.t;  (** [X^B], on the refined instance *)
  parts : int array;                (** [n~_t] per original slot *)
  refined : Model.Instance.t;       (** the refined instance [I~] *)
  c_refined : float;                (** [c(I~)] actually achieved *)
}

val run : eps:float -> Model.Instance.t -> result
(** Requires [eps > 0] and every [beta_j > 0]; runs {!Alg_b.run} on the
    refined instance. *)

val parts_of_slot : eps:float -> Model.Instance.t -> time:int -> int
(** The sub-slot count [n~_t]. *)

(** Named experiment setups.

    These build complete {!Model.Instance.t} values: the motivating
    CPU+GPU mix from the paper's introduction, homogeneous data centers
    (the d = 1 baseline literature), randomised instances for the
    property tests, load-independent instances (the special case of [5]
    and Corollary 9), adversarial burst probes for the lower-bound
    experiments, and a time-varying-size scenario for Section 4.3. *)

val cpu_gpu : ?horizon:int -> ?seed:int -> unit -> Model.Instance.t
(** Two types — many small power-proportional CPU servers and a few
    large, expensive-to-start GPU servers — under a noisy diurnal load.
    Time-independent costs (algorithm A territory). *)

val homogeneous : ?horizon:int -> ?count:int -> ?seed:int -> unit -> Model.Instance.t
(** One server type under diurnal load (the setting of [23, 24, 3, 4]). *)

val three_tier : ?horizon:int -> ?seed:int -> unit -> Model.Instance.t
(** Three types (legacy, current, accelerator) with distinct switching
    costs and capacities; diurnal plus bursts.  Time-independent. *)

val large_fleet : ?horizon:int -> ?seed:int -> unit -> Model.Instance.t
(** Two types with large counts (60 web + 40 batch servers, a 2501-state
    dense grid) — the largest grid of the named scenarios.
    Time-independent; the CI telemetry smoke test solves it. *)

val time_varying_costs : ?horizon:int -> ?seed:int -> unit -> Model.Instance.t
(** Two types whose idle costs follow a day/night electricity price —
    the time-dependent setting of Section 3 (algorithms B/C). *)

val spot_market : ?horizon:int -> ?seed:int -> unit -> Model.Instance.t
(** Two types with load-independent but time-dependent costs: steady
    reserved capacity against a fast-cycling spot market.  The natural
    habitat of the break-even algorithm ({!Online.Alg_det2d}), which
    requires constant per-slot cost functions but tolerates
    time-varying prices. *)

val load_independent : d:int -> horizon:int -> seed:int -> Model.Instance.t
(** Constant operating costs [f_{t,j}(z) = l_j] — the special case with
    the optimal [2d] ratio (Corollary 9). *)

val random_static :
  rng:Util.Prng.t -> d:int -> horizon:int -> max_count:int -> Model.Instance.t
(** Random time-independent instance: counts in [\[1, max_count\]],
    switching costs in [\[0.5, 4\]], capacities in [{1, 2, 4}], operating
    costs drawn from the constant/affine/power families, loads bounded by
    a fraction of total capacity (always feasible). *)

val random_dynamic :
  rng:Util.Prng.t -> d:int -> horizon:int -> max_count:int -> Model.Instance.t
(** Like {!random_static} but with fresh cost functions per slot. *)

val inefficient_mix : ?horizon:int -> ?seed:int -> unit -> Model.Instance.t
(** Two types where the second is *inefficient*: higher switching cost
    and higher idle cost than the first, but much higher capacity, so
    peaks force it on.  The companion work [5] excluded such types; the
    paper's algorithm A handles them (remark after Theorem 8). *)

val resonant_bursts : d:int -> rounds:int -> Model.Instance.t
(** Lower-bound probe in the spirit of the [2d] bound of [5]:
    load-independent types with geometrically growing capacities, hit by
    bursts that force each type on and pause just long enough for the
    ski-rental timer to power it down before the next burst. *)

val geo_shift : ?horizon:int -> ?seed:int -> unit -> Model.Instance.t
(** Geographical load balancing flavour (related work [26, 22]): two
    regions with 12-hour phase-shifted electricity prices, modelled as
    two server types whose time-dependent costs follow their region's
    price.  A cost-aware algorithm shifts capacity to the cheap region
    ("follow the moon"). *)

val maintenance : ?horizon:int -> unit -> Model.Instance.t
(** Time-varying data-center size (Section 4.3): one type partially
    unavailable mid-horizon, another expanding late. *)

val named : (string * (int option -> Model.Instance.t)) list
(** The scenarios addressable by name — the CLI's [--scenario] values
    and the serving daemon's [create-session] scenario names.  Each
    entry takes an optional horizon override. *)

val names : string list

val by_name : string -> (int option -> Model.Instance.t) option

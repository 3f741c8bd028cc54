(** Declarative scenario files — the datacenter-in-a-box test format.

    A scenario file composes everything the repo can do into one
    scripted end-to-end run: a {e base} instance (a {!Sim.Scenarios}
    name — the server types and cost model the daemon serves), a
    synthetic {e workload} built from {!Sim.Workload} /
    {!Dcsim.Job_trace} generators expressed as {e fractions of the
    fleet's capacity}, a {e daemon} section (the durable store, a
    deterministic mid-run crash, shadow-oracle auditing, metrics
    scraping, {!Util.Faultinj} fault storms), optional {e race}
    (forecast-driven receding horizon vs the served online stepper) and
    {e fleet} (capex right-sizing check) sections, and a {e verify}
    section: bit-identity against the sequential oracle and an asserted
    competitive-ratio bound against the offline DP.

    {v
    (scenario
      (name flash-crowd)
      (description "Diurnal base traffic with random flash crowds")
      (base cpu-gpu)
      (slots 96)
      (sessions 4)
      (batch 8)
      (seed 11)
      (workload
        (diurnal (period 24) (base 0.1) (peak 0.45) (noise 0.05))
        (spikes (base 0) (height 0.3) (rate 0.04))
        (clamp (lo 0) (hi 0.9)))
      (daemon
        (metrics true)
        (audit (every 48) (sample 2)))
      (verify (oracle true) (ratio-bound 5.0)))
    v}

    The codec is {e strict}: unknown fields, malformed or out-of-range
    values (durations outside [1, {!max_slots}], capacity fractions
    outside [0, 1], unknown fault sites, a ratio bound below 1) are
    rejected with a message naming the offending field — a scenario
    file that parses is a scenario the runner can execute.
    {!to_sexp} renders the canonical form; [parse (to_string (to_sexp
    t))] returns [t] exactly (floats print round-trippably). *)

type source =
  | Constant of { level : float }
  | Diurnal of { period : int; base : float; peak : float; noise : float }
  | Bursty of { burst : int; gap : int; height : float; base : float }
  | Spikes of { base : float; height : float; rate : float }
  | Random_walk of { start : float; step : float; lo : float; hi : float }
  | Mmpp of { low : float; high : float; switch_prob : float; jitter : float }
  | Weekly of {
      day : int;  (** slots per day; a week is [7 * day] slots *)
      weekday_peak : float;
      weekend_peak : float;
      base : float;
      noise : float;
    }
  | Jobs of { rate : float; mean_volume : float }
      (** Poisson-ish job arrivals ({!Dcsim.Job_trace.poisson})
          aggregated to per-slot volumes; [rate] is mean jobs per slot
          (at most {!max_job_rate}), [mean_volume] a capacity
          fraction. *)
      (** All levels ([level], [base], [peak], ...) are fractions of
          the base instance's declared capacity, in [0, 1]. *)

type fault_plan = Nth of int | Every of int | Prob of float

type daemon = {
  crash_after : int option;
      (** crash (exit 3) after this many stepped slots, then resume
          from the store and re-feed — requires [log_dir] *)
  audit : (int * int) option;     (** shadow oracle: (every, sample) *)
  metrics : bool;                 (** serve and scrape [--metrics-port] *)
  faults : (string * fault_plan) list;  (** site must be in {!fault_sites} *)
  fault_seed : int;
  log_dir : bool;
      (** serve with [--log-dir]: incremental-store durability (a
          [store/] directory inside the scenario workdir) *)
  cement_every : int option;
      (** [--cement-every] records; requires [log_dir] *)
}

type predictor =
  | Naive
  | Seasonal of int       (** period *)
  | Ewma
  | Holt
  | Holt_winters of int   (** period *)

type race = { window : int; predictor : predictor }

type fleet = { budget : int; capex : float list }
(** Re-plan the fleet for the realised workload: per-type per-unit
    capex (one entry per base-instance type), [budget] caps DP
    evaluations. *)

type verify = {
  oracle : bool;
      (** assert served decisions are bit-identical to the local
          sequential oracle *)
  ratio_bound : float;
      (** assert [worst online cost / OPT <= ratio_bound] (>= 1) *)
  max_injected_retries : int;
}

type t = {
  name : string;
  description : string;
  base : string;          (** {!Sim.Scenarios} name *)
  alg : string option;
      (** solver the sessions request ([a], [b], [det2d], [homog]);
          [None] lets the daemon pick.  Validated against the base
          scenario's cost structure at parse time. *)
  slots : int;            (** slots fed per session, [1 .. max_slots] *)
  sessions : int;
  batch : int;            (** slots per feed frame *)
  seed : int;
  workload : source list; (** summed pointwise; at least one *)
  clamp : float * float;  (** final (lo, hi) capacity-fraction clamp *)
  daemon : daemon;
  race : race option;
  fleet : fleet option;
  verify : verify;
}

val max_slots : int
(** 8192 — the duration ceiling for [slots] and all periods. *)

val max_sessions : int
(** 256. *)

val max_job_rate : float
(** 64 jobs per slot. *)

val fault_sites : string list
(** The named {!Util.Faultinj} sites a scenario may arm. *)

val default_daemon : daemon
val default_verify : verify

val validate : t -> (t, string) result
(** Full range/consistency check (also applied by {!of_sexp}). *)

val of_sexp : Util.Sexp.t -> (t, string) result
val to_sexp : t -> Util.Sexp.t

val parse : string -> (t, string) result
val to_string : t -> string

val load_file : string -> (t, string) result

val plan_to_string : fault_plan -> string
(** [nth:3] / [every:40] / [prob:0.01] — the [serve --fault] syntax. *)

val plan_of_string : string -> (fault_plan, string) result

val declared_capacity : Model.Instance.t -> float
(** [sum_j m_j * zmax_j] at declared counts — the scale for the
    workload's capacity fractions (a served fleet runs at its declared
    counts even when the base instance is size-varying). *)

val loads : t -> session_index:int -> float array
(** The deterministic trace session [session_index] is fed: the summed
    sources scaled into the base fleet's declared capacity, clamped.
    Raises [Invalid_argument] when the base scenario is unknown (a
    {!validate}d scenario never does). *)

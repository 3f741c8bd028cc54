type evaluation = { name : string; cost : float; ratio : float; feasible : bool }

let opt_cost inst = (Offline.Dp.solve_optimal inst).Offline.Dp.cost

(* The canonical nan-free competitive ratio: on all-idle traces (zero
   load, free idling) OPT is 0 and a plain division yields nan; an
   algorithm matching the zero optimum is 1-competitive, one paying
   anything at all is unboundedly bad. *)
let ratio ~cost ~opt =
  if opt > 0. then cost /. opt else if cost <= 0. then 1. else infinity

let evaluate inst ~opt named =
  List.map
    (fun (name, schedule) ->
      let cost = Model.Cost.schedule inst schedule in
      { name;
        cost;
        ratio = ratio ~cost ~opt;
        feasible = Model.Schedule.feasible inst schedule })
    named

let all_load_independent inst =
  let d = Model.Instance.num_types inst in
  let ok = ref true in
  for time = 0 to Model.Instance.horizon inst - 1 do
    for typ = 0 to d - 1 do
      if not (Convex.Fn.is_constant (inst.Model.Instance.cost ~time ~typ)) then ok := false
    done
  done;
  !ok

let competitive_bound inst ~algorithm =
  let d = float_of_int (Model.Instance.num_types inst) in
  match algorithm with
  | `A -> if all_load_independent inst then 2. *. d else (2. *. d) +. 1.
  | `B -> (2. *. d) +. 1. +. Alg_b.c_of_instance inst
  | `C eps -> (2. *. d) +. 1. +. eps
  | `Rand ->
      (* Per-seed worst case: every randomised budget is z * beta with
         z <= 1, so each batch powers down no later than under B and the
         same block accounting applies. *)
      (2. *. d) +. 1. +. Alg_b.c_of_instance inst
  | `Det2d ->
      (* Load-independent by construction.  Time-independent: the
         break-even rule equals A's timers, so Corollary 9's optimal 2d
         applies.  Time-varying prices: the final slot may overshoot the
         beta budget by at most max_t l_{t,j}, adding Theorem 13's
         constant (without B's +1 — there is no load-dependent part). *)
      if inst.Model.Instance.time_independent then 2. *. d
      else (2. *. d) +. Alg_b.c_of_instance inst
  | `Homog ->
      (* One effective type: the d-free member of each bound family. *)
      if all_load_independent inst then
        if inst.Model.Instance.time_independent then 2.
        else 2. +. Alg_homog.c_of_instance inst
      else if inst.Model.Instance.time_independent then 3.
      else 3. +. Alg_homog.c_of_instance inst

let run_suite ?(eps = 0.5) ?(window = 3) ?(include_baselines = true) inst =
  Obs.Span.with_ "harness.run_suite" @@ fun () ->
  (* One span per policy, so a trace of a suite run shows where the wall
     time went across OPT, the online algorithms and the baselines. *)
  let policy name f = (name, Obs.Span.with_ ("harness." ^ name) f) in
  let opt =
    Obs.Span.with_ "harness.OPT" (fun () -> Offline.Dp.solve_optimal inst)
  in
  let online =
    if inst.Model.Instance.time_independent then
      [ policy "alg-A" (fun () -> (Alg_a.run inst).Alg_a.schedule) ]
    else
      [ policy "alg-B" (fun () -> (Alg_b.run inst).Alg_b.schedule);
        (Printf.sprintf "alg-C(eps=%g)" eps,
         Obs.Span.with_ "harness.alg-C" (fun () -> (Alg_c.run ~eps inst).Alg_c.schedule)) ]
  in
  let baselines =
    if not include_baselines then []
    else begin
      let basic =
        [ policy "always-on" (fun () -> Baselines.always_on inst);
          policy "follow-demand" (fun () -> Baselines.follow_demand inst);
          (Printf.sprintf "horizon-%d" window,
           Obs.Span.with_ "harness.receding-horizon" (fun () ->
               Baselines.receding_horizon ~window inst)) ]
      in
      if Model.Instance.num_types inst = 1 then
        basic @ [ policy "lcp" (fun () -> Baselines.lcp_1d inst) ]
      else basic
    end
  in
  (("OPT", opt.Offline.Dp.schedule) :: online) @ baselines

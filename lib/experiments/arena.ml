let fmt = Printf.sprintf

type entry = {
  solver : string;
  scenario : string;
  cost : float;
  opt : float;
  ratio : float;
  bound : float option;
  feasible : bool;
  within_bound : bool;
}

type standing = {
  name : string;
  races : int;
  mean_ratio : float;
  worst_ratio : float;
  wins : int;
  bounded : bool;
}

(* Each contender either declines an instance (None — its preconditions
   do not hold) or returns a schedule.  The bound is the asserted
   guarantee from Harness.competitive_bound; baselines race unbounded. *)
type solver = {
  sname : string;
  attempt : Model.Instance.t -> Model.Schedule.t option;
  algorithm : [ `A | `B | `C of float | `Rand | `Det2d | `Homog ] option;
}

let solvers =
  let some f inst = Some (f inst) in
  [ { sname = "alg-A";
      attempt =
        (fun inst ->
          if inst.Model.Instance.time_independent then
            Some (Online.Alg_a.run inst).Online.Alg_a.schedule
          else None);
      algorithm = Some `A };
    { sname = "alg-B";
      attempt = some (fun inst -> (Online.Alg_b.run inst).Online.Alg_b.schedule);
      algorithm = Some `B };
    { sname = "alg-C(0.5)";
      attempt =
        some (fun inst -> (Online.Alg_c.run ~eps:0.5 inst).Online.Alg_c.schedule);
      algorithm = Some (`C 0.5) };
    { sname = "alg-rand(42)";
      attempt =
        (* A fresh fixed-seed PRNG per race keeps the arena deterministic
           and independent of race order. *)
        some (fun inst ->
            (Online.Alg_rand.run ~rng:(Util.Prng.create 42) inst).Online.Alg_rand.schedule);
      algorithm = Some `Rand };
    { sname = "det2d";
      attempt =
        (fun inst ->
          if Online.Alg_det2d.applicable inst then
            Some (Online.Alg_det2d.run inst).Online.Alg_det2d.schedule
          else None);
      algorithm = Some `Det2d };
    { sname = "homog";
      attempt =
        (fun inst ->
          if Online.Alg_homog.applicable inst then
            Some (Online.Alg_homog.run inst).Online.Alg_homog.schedule
          else None);
      algorithm = Some `Homog };
    { sname = "always-on";
      attempt =
        (fun inst ->
          (* Declines when no single configuration covers every slot. *)
          try Some (Online.Baselines.always_on inst) with Invalid_argument _ -> None);
      algorithm = None };
    { sname = "follow-demand";
      attempt = some Online.Baselines.follow_demand;
      algorithm = None } ]

(* A pooled fleet split across two identically-priced "zones": the
   coinciding-types case the pooled homogeneous rule requires with
   d > 1, so it races beyond the trivial d = 1 scenarios. *)
let homog_pool ~horizon =
  let st = Model.Server_type.make in
  let types =
    [| st ~name:"zone-a" ~count:5 ~switching_cost:4. ~cap:1. ();
       st ~name:"zone-b" ~count:5 ~switching_cost:4. ~cap:1. () |]
  in
  let fn = Convex.Fn.power ~idle:0.6 ~coef:0.8 ~expo:2. in
  let rng = Util.Prng.create 13 in
  let load =
    Sim.Workload.diurnal ~noise:0.1 ~rng ~horizon ~period:20 ~base:0.5 ~peak:8. ()
  in
  Model.Instance.make_static ~types ~load ~fns:[| fn; fn |] ()

let scenarios () =
  [ ("cpu-gpu", Sim.Scenarios.cpu_gpu ~horizon:24 ());
    ("homogeneous", Sim.Scenarios.homogeneous ~horizon:24 ());
    ("three-tier", Sim.Scenarios.three_tier ~horizon:24 ());
    ("time-varying", Sim.Scenarios.time_varying_costs ~horizon:24 ());
    ("spot-market", Sim.Scenarios.spot_market ~horizon:24 ());
    ("inefficient-mix", Sim.Scenarios.inefficient_mix ~horizon:24 ());
    ("load-independent", Sim.Scenarios.load_independent ~d:2 ~horizon:16 ~seed:3);
    ("resonant-bursts", Sim.Scenarios.resonant_bursts ~d:2 ~rounds:2);
    ("homog-pool", homog_pool ~horizon:24);
    ("ski-rental",
     (Online.Adversary.reactive_a ~rounds:3 ~beta:4. ~idle:1. ()).Online.Adversary.instance)
  ]

let eps = 1e-6

let race scenarios =
  List.concat_map
    (fun (scenario, inst) ->
      let opt = Online.Harness.opt_cost inst in
      List.filter_map
        (fun s ->
          match s.attempt inst with
          | None -> None
          | Some schedule ->
              let cost = Model.Cost.schedule inst schedule in
              let ratio = Online.Harness.ratio ~cost ~opt in
              let bound =
                Option.map
                  (fun algorithm -> Online.Harness.competitive_bound inst ~algorithm)
                  s.algorithm
              in
              let within_bound =
                match bound with None -> true | Some b -> ratio <= b +. eps
              in
              Some
                { solver = s.sname;
                  scenario;
                  cost;
                  opt;
                  ratio;
                  bound;
                  feasible = Model.Schedule.feasible inst schedule;
                  within_bound })
        solvers)
    scenarios

let standings entries =
  (* A win = strictly cheapest-or-tied cost in a scenario's field. *)
  let scenario_best =
    List.fold_left
      (fun acc e ->
        let best = match List.assoc_opt e.scenario acc with
          | Some b -> Float.min b e.cost
          | None -> e.cost
        in
        (e.scenario, best) :: List.remove_assoc e.scenario acc)
      [] entries
  in
  let names =
    List.fold_left
      (fun acc e -> if List.mem e.solver acc then acc else acc @ [ e.solver ])
      [] entries
  in
  let ranked =
    List.map
      (fun name ->
        let mine = List.filter (fun e -> e.solver = name) entries in
        let n = List.length mine in
        let sum = List.fold_left (fun a e -> a +. e.ratio) 0. mine in
        let worst = List.fold_left (fun a e -> Float.max a e.ratio) 0. mine in
        let wins =
          List.length
            (List.filter
               (fun e -> e.cost <= List.assoc e.scenario scenario_best +. eps)
               mine)
        in
        { name;
          races = n;
          mean_ratio = (if n = 0 then nan else sum /. float_of_int n);
          worst_ratio = worst;
          wins;
          bounded = List.for_all (fun e -> e.within_bound) mine })
      names
  in
  List.sort (fun a b -> compare a.mean_ratio b.mean_ratio) ranked

let to_json entries ranked =
  let json_escape = Obs.Events.json_escape in
  let num x = if Float.is_finite x then fmt "%.6f" x else fmt "\"%h\"" x in
  let entry e =
    fmt
      "    {\"solver\": \"%s\", \"scenario\": \"%s\", \"cost\": %s, \"opt\": %s, \
       \"ratio\": %s, \"bound\": %s, \"feasible\": %b, \"within_bound\": %b}"
      (json_escape e.solver) (json_escape e.scenario) (num e.cost) (num e.opt)
      (num e.ratio)
      (match e.bound with Some b -> num b | None -> "null")
      e.feasible e.within_bound
  in
  let standing s =
    fmt
      "    {\"solver\": \"%s\", \"races\": %d, \"mean_ratio\": %s, \"worst_ratio\": %s, \
       \"wins\": %d, \"within_bounds\": %b}"
      (json_escape s.name) s.races (num s.mean_ratio) (num s.worst_ratio) s.wins s.bounded
  in
  fmt "{\n  \"schema\": \"rightsizer-arena/1\",\n  \"standings\": [\n%s\n  ],\n  \"races\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map standing ranked))
    (String.concat ",\n" (List.map entry entries))

let run () =
  let scenarios = scenarios () in
  let entries = race scenarios in
  let ranked = standings entries in
  let races_tbl =
    Util.Table.create
      ~header:[ "scenario"; "solver"; "cost"; "OPT"; "ratio"; "bound"; "ok" ]
  in
  List.iter
    (fun e ->
      Util.Table.add_row races_tbl
        [ e.scenario; e.solver; fmt "%.3f" e.cost; fmt "%.3f" e.opt; fmt "%.3f" e.ratio;
          (match e.bound with Some b -> fmt "%.3f" b | None -> "-");
          (if e.feasible && e.within_bound then "yes" else "NO") ])
    entries;
  let standings_tbl =
    Util.Table.create
      ~header:[ "rank"; "solver"; "races"; "mean ratio"; "worst ratio"; "wins"; "bounds" ]
  in
  List.iteri
    (fun i s ->
      Util.Table.add_row standings_tbl
        [ string_of_int (i + 1); s.name; string_of_int s.races; fmt "%.3f" s.mean_ratio;
          fmt "%.3f" s.worst_ratio; string_of_int s.wins;
          (if s.bounded then "held" else "VIOLATED") ])
    ranked;
  let feasible = List.for_all (fun e -> e.feasible) entries in
  let bounded = List.for_all (fun e -> e.within_bound) entries in
  let sane = List.for_all (fun e -> e.ratio >= 1. -. eps) entries in
  let num_solvers = List.length ranked in
  let num_scenarios = List.length scenarios in
  { Report.id = "arena";
    title = "Competitive-ratio arena: every solver on every scenario";
    claim =
      "each solver's measured ratio lies in [1, bound] on every applicable scenario \
       (A: 2d+1, B: 2d+1+c, C: 2d+1+eps, rand: per-seed 2d+1+c, det2d: 2d (+c), \
       homog: d-free 2/3 (+c) family)";
    verdict =
      (if feasible && bounded && sane then
         fmt "%d solvers x %d scenarios: all feasible, every ratio within its bound"
           num_solvers num_scenarios
       else "VIOLATION: see the race table");
    sections =
      [ Report.section ~heading:"standings (by mean ratio)" (Util.Table.render standings_tbl);
        Report.section ~heading:"races" (Util.Table.render races_tbl) ];
    pass = feasible && bounded && sane;
    artifacts =
      [ ("arena.json", to_json entries ranked); ("arena.csv", Util.Table.to_csv races_tbl) ]
  }

(* Tests for the proof-mirroring extensions: the explicit paper graph
   (Section 4.1 reference solver), the X' witness of Theorem 16, the
   block / special-slot analysis of Lemma 7, and the randomised
   power-down variant. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Graph_paper --- *)

let test_graph_stats_figure4 () =
  (* Figure 4: d = 2, T = 2, m = (2, 1): 2 * 2 * 3 * 2 = 24 vertices. *)
  let types =
    [| Model.Server_type.make ~count:2 ~switching_cost:1. ~cap:1. ();
       Model.Server_type.make ~count:1 ~switching_cost:2. ~cap:2. () |]
  in
  let fns = [| Convex.Fn.const 1.; Convex.Fn.const 1. |] in
  let inst = Model.Instance.make_static ~types ~load:[| 1.; 1. |] ~fns () in
  let s = Offline.Graph_paper.stats inst in
  checki "vertices" 24 s.Offline.Graph_paper.vertices;
  (* Per slot: 6 op edges, up edges: axis0 has 2 per (fixing axis1): 2*2=4,
     axis1: 3 -> 3; so 7 up + 7 down; plus 6 next edges after slot 1.
     Total = 2 * (6 + 14) + 6 = 46. *)
  checki "edges" 46 s.Offline.Graph_paper.edges

let test_graph_matches_dp_random () =
  let rng = Util.Prng.create 31 in
  for _ = 1 to 15 do
    let d = 1 + Util.Prng.int rng 2 in
    let horizon = 2 + Util.Prng.int rng 4 in
    let dynamic = Util.Prng.bool rng in
    let inst =
      if dynamic then Sim.Scenarios.random_dynamic ~rng ~d ~horizon ~max_count:3
      else Sim.Scenarios.random_static ~rng ~d ~horizon ~max_count:3
    in
    let g = Offline.Graph_paper.solve inst in
    let dp = Offline.Dp.solve_optimal inst in
    checkb "same optimal cost" true
      (Util.Float_cmp.close ~eps:1e-6 g.Offline.Dp.cost dp.Offline.Dp.cost);
    checkb "graph schedule feasible" true
      (Model.Schedule.feasible inst g.Offline.Dp.schedule);
    checkb "graph schedule achieves the cost" true
      (Util.Float_cmp.close ~eps:1e-6 g.Offline.Dp.cost
         (Model.Cost.schedule inst g.Offline.Dp.schedule))
  done

let test_graph_matches_dp_timevarying () =
  let inst = Sim.Scenarios.maintenance ~horizon:12 () in
  let g = Offline.Graph_paper.solve inst in
  let dp = Offline.Dp.solve_optimal inst in
  checkb "same cost with removed vertices" true
    (Util.Float_cmp.close ~eps:1e-6 g.Offline.Dp.cost dp.Offline.Dp.cost)

(* --- Approx_witness --- *)

let test_witness_figure5_band () =
  (* gamma = 2, m = 10 (Figure 5): the witness follows the optimum inside
     the band [x*, 3 x*]. *)
  let gamma = 2. in
  let grid _ = Offline.Grid.power ~gamma [| 10 |] in
  let opt =
    Model.Schedule.of_lists
      [ [ 3 ]; [ 5 ]; [ 9 ]; [ 10 ]; [ 6 ]; [ 2 ]; [ 1 ]; [ 0 ]; [ 4 ]; [ 7 ] ]
  in
  let w = Offline.Approx_witness.build ~gamma ~grid opt in
  checkb "invariant (19)" true (Offline.Approx_witness.invariant_holds ~gamma ~opt ~witness:w);
  (* All witness values lie on the grid {0,1,2,4,8,10}. *)
  let allowed = [ 0; 1; 2; 4; 8; 10 ] in
  Array.iter (fun x -> checkb "on grid" true (List.mem x.(0) allowed)) w

let test_witness_invariant_random () =
  let rng = Util.Prng.create 41 in
  for _ = 1 to 20 do
    let d = 1 + Util.Prng.int rng 2 in
    let horizon = 3 + Util.Prng.int rng 4 in
    let inst = Sim.Scenarios.random_static ~rng ~d ~horizon ~max_count:9 in
    let opt = Offline.Dp.solve_optimal inst in
    let gamma = 1.25 +. Util.Prng.float rng 1.25 in
    let grid _ = Offline.Grid.power ~gamma (Model.Instance.counts inst) in
    let w = Offline.Approx_witness.build ~gamma ~grid opt.Offline.Dp.schedule in
    checkb "invariant (19)" true
      (Offline.Approx_witness.invariant_holds ~gamma ~opt:opt.Offline.Dp.schedule ~witness:w);
    (* The invariant makes X' feasible (it dominates the optimum), and
       Theorem 16's chain gives C(X-gamma) <= C(X'). *)
    checkb "witness feasible" true (Model.Schedule.feasible inst w);
    let approx = Offline.Dp.solve ~grids:(Offline.Dp.approx_grids ~gamma inst) inst in
    checkb "shortest path undercuts the witness" true
      (approx.Offline.Dp.cost <= Model.Cost.schedule inst w +. 1e-6)
  done

let test_witness_theorem16_cost_bound () =
  (* The full proof chain — C(X') at most (2 gamma - 1) times the optimal
     cost — needs the paper's lemmas; here we verify it empirically. *)
  let inst = Sim.Scenarios.cpu_gpu ~horizon:20 () in
  let opt = Offline.Dp.solve_optimal inst in
  List.iter
    (fun gamma ->
      let grid _ = Offline.Grid.power ~gamma (Model.Instance.counts inst) in
      let w = Offline.Approx_witness.build ~gamma ~grid opt.Offline.Dp.schedule in
      let bound = ((2. *. gamma) -. 1.) *. opt.Offline.Dp.cost in
      checkb
        (Printf.sprintf "C(X') within (2*%g - 1) OPT" gamma)
        true
        (Model.Cost.schedule inst w <= bound +. 1e-6))
    [ 1.25; 1.5; 2. ]

(* --- Analysis (blocks and special slots) --- *)

let test_blocks_a_structure () =
  let inst = Sim.Scenarios.cpu_gpu ~horizon:30 () in
  let r = Online.Alg_a.run inst in
  for typ = 0 to 1 do
    let blocks = Online.Analysis.blocks_a r ~typ ~horizon:30 in
    List.iter
      (fun b ->
        checkb "start <= stop" true (b.Online.Analysis.start <= b.Online.Analysis.stop);
        checkb "positive count" true (b.Online.Analysis.count > 0))
      blocks;
    (* Sorted by start. *)
    let starts = List.map (fun b -> b.Online.Analysis.start) blocks in
    checkb "sorted" true (List.sort compare starts = starts)
  done

let test_each_block_contains_exactly_one_special_slot () =
  (* The key combinatorial fact behind Lemma 7 / Lemma 12. *)
  let check_result blocks =
    let taus = Online.Analysis.special_slots blocks in
    let per = Online.Analysis.blocks_per_special blocks taus in
    let total = List.fold_left ( + ) 0 per in
    checki "every block counted once" (List.length blocks) total
  in
  let inst_a = Sim.Scenarios.cpu_gpu ~horizon:36 () in
  let ra = Online.Alg_a.run inst_a in
  for typ = 0 to 1 do
    check_result (Online.Analysis.blocks_a ra ~typ ~horizon:36)
  done;
  let inst_b = Sim.Scenarios.time_varying_costs ~horizon:30 () in
  let rb = Online.Alg_b.run inst_b in
  for typ = 0 to 1 do
    check_result (Online.Analysis.blocks_b rb ~typ ~horizon:30)
  done

let test_special_slots_spacing_a () =
  (* Consecutive special slots of algorithm A are at least t_j apart. *)
  let inst = Sim.Scenarios.cpu_gpu ~horizon:36 () in
  let r = Online.Alg_a.run inst in
  for typ = 0 to 1 do
    match r.Online.Alg_a.runtimes.(typ) with
    | None -> ()
    | Some tbar ->
        let blocks = Online.Analysis.blocks_a r ~typ ~horizon:36 in
        let taus = Online.Analysis.special_slots blocks in
        let rec gaps = function
          | a :: (b :: _ as rest) ->
              checkb "gap >= tbar" true (b - a >= tbar);
              gaps rest
          | _ -> ()
        in
        gaps taus
  done

let test_lemma6_block_costs () =
  (* Lemma 6: every block's switching + idle cost H_{j,i} is at most
     2 min(beta_j + f_j(0), t_j f_j(0)). *)
  let inst = Sim.Scenarios.cpu_gpu ~horizon:36 () in
  let r = Online.Alg_a.run inst in
  for typ = 0 to 1 do
    List.iter
      (fun b ->
        let h = Online.Analysis.block_cost inst ~typ b in
        let bound = Online.Analysis.lemma6_bound inst ~typ b in
        checkb
          (Printf.sprintf "H <= Lemma 6 bound (type %d, block at %d)" typ
             b.Online.Analysis.start)
          true (h <= bound +. 1e-9))
      (Online.Analysis.blocks_a r ~typ ~horizon:36)
  done

let test_lemma11_block_costs () =
  (* Lemma 11: algorithm B's blocks satisfy H <= 2 beta + max_t l_{t,j}. *)
  let inst = Sim.Scenarios.time_varying_costs ~horizon:30 () in
  let r = Online.Alg_b.run inst in
  for typ = 0 to 1 do
    List.iter
      (fun b ->
        let h = Online.Analysis.block_cost inst ~typ b in
        let bound = Online.Analysis.lemma11_bound inst ~typ b in
        checkb
          (Printf.sprintf "H <= Lemma 11 bound (type %d, block at %d)" typ
             b.Online.Analysis.start)
          true (h <= bound +. 1e-9))
      (Online.Analysis.blocks_b r ~typ ~horizon:30)
  done

let test_lemma5_load_dependent_total () =
  (* Lemma 5: the summed load-dependent cost of X^A is at most the total
     cost of the final optimal prefix schedule C(X^T). *)
  List.iter
    (fun inst ->
      let r = Online.Alg_a.run inst in
      let lhs = Online.Analysis.load_dependent_total inst r.Online.Alg_a.schedule in
      let horizon = Model.Instance.horizon inst in
      let rhs = r.Online.Alg_a.prefix_costs.(horizon - 1) in
      checkb "Lemma 5" true (lhs <= rhs +. 1e-6))
    [ Sim.Scenarios.cpu_gpu ~horizon:24 ();
      Sim.Scenarios.three_tier ~horizon:20 ();
      Sim.Scenarios.homogeneous ~horizon:30 () ]

(* --- Alg_rand --- *)

let test_rand_threshold_distribution () =
  let rng = Util.Prng.create 51 in
  let xs = Array.init 20_000 (fun _ -> Online.Alg_rand.draw_threshold rng) in
  checkb "in (0, 1]" true (Array.for_all (fun z -> z >= 0. && z <= 1.) xs);
  (* E[Z] = integral z e^z / (e-1) = 1 / (e - 1) ~ 0.582. *)
  let mean = Util.Stats.mean xs in
  checkb "mean near 1/(e-1)" true (Float.abs (mean -. (1. /. (Float.exp 1. -. 1.))) < 0.01)

let test_rand_feasible_and_dominates () =
  let rng = Util.Prng.create 52 in
  let inst = Sim.Scenarios.cpu_gpu ~horizon:24 () in
  let r = Online.Alg_rand.run ~rng inst in
  checkb "feasible" true (Model.Schedule.feasible inst r.Online.Alg_rand.schedule);
  Array.iteri
    (fun t hat ->
      checkb "dominates prefix optimum" true
        (Model.Config.dominates r.Online.Alg_rand.schedule.(t) hat))
    r.Online.Alg_rand.prefix_last

let test_rand_expected_improvement_on_bursts () =
  (* On ski-rental-adversarial bursts the randomised timer should beat
     the deterministic one on average (factor e/(e-1) vs 2 per block). *)
  let inst = Sim.Scenarios.resonant_bursts ~d:1 ~rounds:6 in
  let det = Online.Alg_a.run inst in
  let det_cost = Model.Cost.schedule inst det.Online.Alg_a.schedule in
  let n = 40 in
  let total = ref 0. in
  for seed = 1 to n do
    let rng = Util.Prng.create (1000 + seed) in
    let r = Online.Alg_rand.run ~rng inst in
    total := !total +. Model.Cost.schedule inst r.Online.Alg_rand.schedule
  done;
  let avg = !total /. float_of_int n in
  checkb
    (Printf.sprintf "E[rand] = %.3f <= det = %.3f" avg det_cost)
    true (avg <= det_cost +. 1e-6)

let test_rand_deterministic_given_seed () =
  let inst = Sim.Scenarios.cpu_gpu ~horizon:16 () in
  let run seed =
    let rng = Util.Prng.create seed in
    Model.Cost.schedule inst (Online.Alg_rand.run ~rng inst).Online.Alg_rand.schedule
  in
  Alcotest.(check (float 0.)) "replayable" (run 7) (run 7)

(* --- Arena --- *)

(* A small deterministic fixture: three scenarios covering every
   solver's habitat (d = 1 pooled, load-independent spot prices,
   heterogeneous static). *)
let arena_fixture () =
  [ ("homogeneous", Sim.Scenarios.homogeneous ~horizon:12 ());
    ("spot-market", Sim.Scenarios.spot_market ~horizon:12 ());
    ("load-independent", Sim.Scenarios.load_independent ~d:2 ~horizon:8 ~seed:3) ]

let test_arena_entries_sound () =
  let entries = Core.Arena.race (arena_fixture ()) in
  checkb "non-empty" true (entries <> []);
  List.iter
    (fun (e : Core.Arena.entry) ->
      let name = e.Core.Arena.solver ^ "/" ^ e.Core.Arena.scenario in
      checkb (name ^ " feasible") true e.Core.Arena.feasible;
      checkb (name ^ " ratio >= 1") true (e.Core.Arena.ratio >= 1. -. 1e-6);
      checkb (name ^ " ratio not nan") true (not (Float.is_nan e.Core.Arena.ratio));
      checkb (name ^ " within bound") true e.Core.Arena.within_bound;
      match e.Core.Arena.bound with
      | None -> ()
      | Some b ->
          checkb (name ^ " bound respected") true (e.Core.Arena.ratio <= b +. 1e-6))
    entries;
  (* Every solver that can enter these scenarios does: A and det2d and
     homog all find at least one race here. *)
  let entered s = List.exists (fun e -> e.Core.Arena.solver = s) entries in
  List.iter
    (fun s -> checkb (s ^ " entered") true (entered s))
    [ "alg-A"; "alg-B"; "alg-C(0.5)"; "alg-rand(42)"; "det2d"; "homog"; "always-on";
      "follow-demand" ]

let test_arena_golden_deterministic () =
  (* Bit-exact reproducibility: two runs produce identical entries and
     identical standings — ranks and ratios do not drift with
     repetition. *)
  let fixture = arena_fixture () in
  let e1 = Core.Arena.race fixture in
  let e2 = Core.Arena.race fixture in
  checkb "entries replay bit-exactly" true (e1 = e2);
  let s1 = Core.Arena.standings e1 and s2 = Core.Arena.standings e2 in
  checkb "standings identical" true (s1 = s2);
  Alcotest.(check (list string))
    "rank order stable"
    (List.map (fun (s : Core.Arena.standing) -> s.Core.Arena.name) s1)
    (List.map (fun (s : Core.Arena.standing) -> s.Core.Arena.name) s2)

let test_arena_standings_consistent () =
  let entries = Core.Arena.race (arena_fixture ()) in
  let standings = Core.Arena.standings entries in
  (* Ranked ascending by mean ratio; races and wins tally up. *)
  let rec sorted = function
    | (a : Core.Arena.standing) :: (b :: _ as rest) ->
        a.Core.Arena.mean_ratio <= b.Core.Arena.mean_ratio +. 1e-12 && sorted rest
    | _ -> true
  in
  checkb "sorted by mean ratio" true (sorted standings);
  List.iter
    (fun (s : Core.Arena.standing) ->
      let mine = List.filter (fun e -> e.Core.Arena.solver = s.Core.Arena.name) entries in
      checki (s.Core.Arena.name ^ " races") (List.length mine) s.Core.Arena.races;
      checkb (s.Core.Arena.name ^ " worst >= mean") true
        (s.Core.Arena.worst_ratio >= s.Core.Arena.mean_ratio -. 1e-12);
      checkb (s.Core.Arena.name ^ " bounded") true s.Core.Arena.bounded)
    standings;
  let total_wins =
    List.fold_left (fun acc (s : Core.Arena.standing) -> acc + s.Core.Arena.wins) 0 standings
  in
  (* Ties share a win, so at least one win per scenario. *)
  checkb "every scenario has a winner" true (total_wins >= List.length (arena_fixture ()))

let () =
  Alcotest.run "extensions"
    [ ( "graph_paper",
        [ Alcotest.test_case "Figure 4 graph size" `Quick test_graph_stats_figure4;
          Alcotest.test_case "matches the transform DP" `Quick test_graph_matches_dp_random;
          Alcotest.test_case "time-varying sizes" `Quick test_graph_matches_dp_timevarying
        ] );
      ( "approx_witness",
        [ Alcotest.test_case "Figure 5 band" `Quick test_witness_figure5_band;
          Alcotest.test_case "invariant (19) on random optima" `Quick
            test_witness_invariant_random;
          Alcotest.test_case "Theorem 16 cost bound" `Quick test_witness_theorem16_cost_bound
        ] );
      ( "analysis",
        [ Alcotest.test_case "block structure" `Quick test_blocks_a_structure;
          Alcotest.test_case "one special slot per block" `Quick
            test_each_block_contains_exactly_one_special_slot;
          Alcotest.test_case "special slot spacing" `Quick test_special_slots_spacing_a;
          Alcotest.test_case "Lemma 6 block costs" `Quick test_lemma6_block_costs;
          Alcotest.test_case "Lemma 11 block costs" `Quick test_lemma11_block_costs;
          Alcotest.test_case "Lemma 5 load-dependent total" `Quick
            test_lemma5_load_dependent_total
        ] );
      ( "alg_rand",
        [ Alcotest.test_case "threshold distribution" `Quick test_rand_threshold_distribution;
          Alcotest.test_case "feasible and dominating" `Quick test_rand_feasible_and_dominates;
          Alcotest.test_case "beats deterministic on bursts (on average)" `Quick
            test_rand_expected_improvement_on_bursts;
          Alcotest.test_case "replayable" `Quick test_rand_deterministic_given_seed
        ] );
      ( "arena",
        [ Alcotest.test_case "entries sound (feasible, ratio in [1, bound])" `Quick
            test_arena_entries_sound;
          Alcotest.test_case "golden: bit-exact across runs and standings" `Quick
            test_arena_golden_deterministic;
          Alcotest.test_case "standings consistent with entries" `Quick
            test_arena_standings_consistent
        ] )
    ]

(* Property-based tests (qcheck): convexity preservation, dispatch
   optimality, transform laws, DP-vs-brute-force equivalence, the
   approximation guarantee (Theorem 16), and the competitive bounds of
   Theorems 8/13/15 and Corollary 9 on randomised instances.

   Instances are derived deterministically from a generated integer seed,
   so qcheck shrinking walks over seeds and every failure is replayable. *)

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let mk_test ?(count = 30) ~name prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count seed_gen prop)

(* --- Convex functions --- *)

let random_fn rng =
  match Util.Prng.int rng 4 with
  | 0 -> Convex.Fn.const (Util.Prng.float rng 2.)
  | 1 ->
      Convex.Fn.affine ~intercept:(Util.Prng.float rng 2.) ~slope:(Util.Prng.float rng 2.)
  | 2 ->
      Convex.Fn.power ~idle:(Util.Prng.float rng 2.) ~coef:(Util.Prng.float rng 2.)
        ~expo:(1. +. Util.Prng.float rng 2.)
  | _ ->
      Convex.Fn.quadratic ~c0:(Util.Prng.float rng 1.) ~c1:(Util.Prng.float rng 1.)
        ~c2:(Util.Prng.float rng 1.)

let prop_fn_convex_increasing seed =
  let rng = Util.Prng.create seed in
  let f = random_fn rng in
  Convex.Fn.check_convex ~lo:0. ~hi:4. f && Convex.Fn.check_increasing ~lo:0. ~hi:4. f

let prop_fn_combinators_preserve_convexity seed =
  let rng = Util.Prng.create seed in
  let f = random_fn rng and g = random_fn rng in
  let k = Util.Prng.float rng 3. in
  let candidates =
    [ Convex.Fn.scale k f;
      Convex.Fn.add f g;
      Convex.Fn.shift_idle k f;
      Convex.Fn.compose_scaled ~outer:(0.5 +. k) ~inner:(0.1 +. Util.Prng.float rng 2.) f ]
  in
  List.for_all
    (fun h -> Convex.Fn.check_convex ~lo:0. ~hi:4. h && Convex.Fn.check_increasing ~lo:0. ~hi:4. h)
    candidates

let prop_fn_deriv_matches_finite_difference seed =
  let rng = Util.Prng.create seed in
  let f = random_fn rng in
  let z = 0.1 +. Util.Prng.float rng 3. in
  let h = 1e-5 in
  let numeric = (Convex.Fn.eval f (z +. h) -. Convex.Fn.eval f (z -. h)) /. (2. *. h) in
  Float.abs (numeric -. Convex.Fn.deriv f z) < 1e-3 *. Float.max 1. (Float.abs numeric)

(* The analytic derivative inverse must agree with bisecting the
   derivative itself.  Sample the target slope strictly inside the
   derivative's range over [0, hi], where the boundary conventions of
   the two methods cannot differ. *)
let prop_inv_deriv_matches_bisection seed =
  let rng = Util.Prng.create seed in
  let f =
    let g = random_fn rng in
    if Util.Prng.int rng 2 = 0 then g else Convex.Fn.add g (random_fn rng)
  in
  if not (Convex.Fn.has_inv_deriv f) then true
  else begin
    let hi = 4. in
    let d0 = Convex.Fn.deriv f 0. and dhi = Convex.Fn.deriv f hi in
    if dhi -. d0 < 1e-9 then true (* (near-)affine: no interior crossing *)
    else begin
      let t = 0.05 +. (0.9 *. Util.Prng.float rng 1.) in
      let nu = d0 +. (t *. (dhi -. d0)) in
      let analytic =
        Float.min hi (Float.max 0. (Convex.Fn.inv_deriv f nu))
      in
      let numeric =
        Convex.Scalar_min.bisect_monotone (Convex.Fn.deriv f) ~lo:0. ~hi ~target:nu
      in
      Float.abs (analytic -. numeric) < 1e-9 *. Float.max 1. hi
    end
  end

(* --- Dispatch --- *)

let random_pieces rng =
  let d = 1 + Util.Prng.int rng 4 in
  Array.init d (fun _ ->
      { Convex.Dispatch.fn = random_fn rng; upper = 0.3 +. Util.Prng.float rng 0.9 })

let prop_dispatch_valid_simplex_point seed =
  let rng = Util.Prng.create seed in
  let pieces = random_pieces rng in
  let cap = Array.fold_left (fun acc p -> acc +. p.Convex.Dispatch.upper) 0. pieces in
  let total = Util.Prng.float rng cap in
  match Convex.Dispatch.solve pieces ~total with
  | None -> false (* within capacity, must be feasible *)
  | Some { assignment; _ } ->
      let sum = Array.fold_left ( +. ) 0. assignment in
      Float.abs (sum -. total) < 1e-6
      && Array.for_all2
           (fun z p -> z >= -1e-9 && z <= p.Convex.Dispatch.upper +. 1e-6)
           assignment pieces

let prop_dispatch_beats_random_feasible_points seed =
  let rng = Util.Prng.create seed in
  let pieces = random_pieces rng in
  let cap = Array.fold_left (fun acc p -> acc +. p.Convex.Dispatch.upper) 0. pieces in
  let total = Util.Prng.float rng cap in
  match Convex.Dispatch.solve pieces ~total with
  | None -> false
  | Some { objective; _ } ->
      (* Sample random feasible assignments; none may beat the solver by
         more than the tolerance. *)
      let d = Array.length pieces in
      let ok = ref true in
      for _ = 1 to 30 do
        (* Random point: draw weights, scale to total, clamp to caps and
           dump the overflow greedily. *)
        let w = Array.init d (fun _ -> Util.Prng.float rng 1. +. 1e-6) in
        let wsum = Array.fold_left ( +. ) 0. w in
        let z = Array.map (fun wi -> wi /. wsum *. total) w in
        let overflow = ref 0. in
        Array.iteri
          (fun j zj ->
            let cap_j = pieces.(j).Convex.Dispatch.upper in
            if zj > cap_j then begin
              overflow := !overflow +. (zj -. cap_j);
              z.(j) <- cap_j
            end)
          z;
        Array.iteri
          (fun j zj ->
            if !overflow > 0. then begin
              let room = pieces.(j).Convex.Dispatch.upper -. zj in
              let take = Float.min room !overflow in
              z.(j) <- zj +. take;
              overflow := !overflow -. take
            end)
          z;
        if !overflow <= 1e-9 then begin
          let c = ref 0. in
          Array.iteri (fun j zj -> c := !c +. Convex.Fn.eval pieces.(j).Convex.Dispatch.fn zj) z;
          if !c < objective -. 1e-4 *. Float.max 1. objective then ok := false
        end
      done;
      !ok

let prop_dispatch_matches_greedy seed =
  let rng = Util.Prng.create seed in
  let pieces = random_pieces rng in
  let cap = Array.fold_left (fun acc p -> acc +. p.Convex.Dispatch.upper) 0. pieces in
  let total = Util.Prng.float rng cap in
  match (Convex.Dispatch.solve pieces ~total, Convex.Dispatch.greedy ~steps:4000 pieces ~total) with
  | Some kkt, Some grd ->
      kkt.Convex.Dispatch.objective
      <= grd.Convex.Dispatch.objective +. (1e-2 *. Float.max 1. grd.Convex.Dispatch.objective)
  | _ -> false

(* The analytic water-filling path must match the legacy per-piece
   numeric path on the objective: both solve the same KKT system, only
   the per-piece response differs. *)
let prop_dispatch_analytic_matches_numeric seed =
  let rng = Util.Prng.create seed in
  let pieces = random_pieces rng in
  let cap = Array.fold_left (fun acc p -> acc +. p.Convex.Dispatch.upper) 0. pieces in
  let total = Util.Prng.float rng cap in
  match
    (Convex.Dispatch.solve pieces ~total, Convex.Dispatch.solve ~numeric:true pieces ~total)
  with
  | Some a, Some n ->
      Float.abs (a.Convex.Dispatch.objective -. n.Convex.Dispatch.objective)
      <= 1e-6 *. Float.max 1. (Float.abs n.Convex.Dispatch.objective)
  | None, None -> true
  | _ -> false

(* The warm-started line sweep must agree with independent per-cell
   solves.  Cells are built exactly like a DP grid line (equation (1)
   pieces with the swept axis's count growing), so the monotone
   multiplier precondition holds; the function pool includes
   non-invertible families (max-of-affine) to exercise the sweep's
   numeric fallback and piecewise-linear ones for derivative
   plateaus. *)
let random_sweep_fn rng =
  match Util.Prng.int rng 6 with
  | 0 | 1 | 2 | 3 -> random_fn rng
  | 4 ->
      (* Convex increasing piecewise-linear: growing slopes. *)
      let slope1 = Util.Prng.float rng 1. in
      let slope2 = slope1 +. Util.Prng.float rng 2. in
      let v0 = Util.Prng.float rng 1. in
      Convex.Fn.piecewise_linear
        [ (0., v0); (1., v0 +. slope1); (3., v0 +. slope1 +. (2. *. slope2)) ]
  | _ ->
      Convex.Fn.max_affine
        (List.init
           (1 + Util.Prng.int rng 3)
           (fun _ -> (Util.Prng.float rng 2., Util.Prng.float rng 2.)))

let prop_sweep_line_matches_per_cell seed =
  let rng = Util.Prng.create seed in
  let d = 2 + Util.Prng.int rng 3 in
  let load = 0.5 +. Util.Prng.float rng 4. in
  let piece_for fn count cap =
    if count = 0 then { Convex.Dispatch.fn = Convex.Fn.const 0.; upper = 0. }
    else
      let xf = float_of_int count in
      { Convex.Dispatch.fn = Convex.Fn.compose_scaled ~outer:xf ~inner:(load /. xf) fn;
        upper = Float.min 1. (xf *. cap /. load) }
  in
  let prefix =
    Array.init (d - 1) (fun _ ->
        piece_for (random_sweep_fn rng) (Util.Prng.int rng 4) (0.5 +. Util.Prng.float rng 1.5))
  in
  let fn_last = random_sweep_fn rng in
  let cap_last = 0.5 +. Util.Prng.float rng 1.5 in
  let cells =
    (* Swept counts 0 .. len-1: the first cells may be infeasible or
       capped at zero, exercising sweeps that start on skipped cells. *)
    Array.init
      (1 + Util.Prng.int rng 5)
      (fun v ->
        let ps = Array.copy prefix in
        let ps = Array.append ps [| piece_for fn_last v cap_last |] in
        ps)
  in
  let line = Array.make (Array.length cells) nan in
  let sw = Convex.Dispatch.sweep () in
  Convex.Dispatch.sweep_start sw;
  Array.iteri (fun i ps -> Convex.Dispatch.sweep_solve sw ps ~total:1. line i) cells;
  Convex.Dispatch.sweep_finish sw;
  let ok = ref true in
  Array.iteri
    (fun i ps ->
      match Convex.Dispatch.solve ps ~total:1. with
      | None -> if line.(i) <> infinity then ok := false
      | Some { Convex.Dispatch.objective; _ } ->
          if Float.abs (line.(i) -. objective) > 1e-9 *. Float.max 1. (Float.abs objective)
          then ok := false)
    cells;
  !ok

(* --- Transforms --- *)

(* A random sub-grid of the fleet: every axis keeps 0 and its fleet size
   (so the full capacity stays on the grid) and a random subset of the
   counts in between. *)
let random_subgrid rng counts =
  Offline.Grid.make
    (Array.map
       (fun m ->
         Array.of_list
           (List.filter
              (fun v -> v = 0 || v = m || Util.Prng.bool rng)
              (List.init (m + 1) Fun.id)))
       counts)

(* The bare in-place ramp on a plane copy of [costs]: a zero [ops] row
   adds nothing. *)
let ramp_grid ~grid ~betas costs =
  let n = Array.length costs in
  let p = Offline.Plane.create n in
  Offline.Plane.of_array costs p ~off:0;
  Offline.Transform.ramp_grid_plane ~ops:(Array.make n 0.) ~grid ~betas p ~off:0;
  Offline.Plane.to_array p ~off:0 ~len:n

(* The ramp straight from its definition,
   [D'(x) = min_y D(y) + sum_j beta_j (x_j - y_j)^+], minimising over
   every state [y] of [src_grid] for each state [x] of [dst_grid] — the
   reference for the plane engine's per-axis scans. *)
let brute_ramp ~src_grid ~dst_grid ~betas src =
  Array.init (Offline.Grid.size dst_grid) (fun i ->
      let x = Offline.Grid.config_at dst_grid i in
      let best = ref infinity in
      Array.iteri
        (fun yi cy ->
          let y = Offline.Grid.config_at src_grid yi in
          let c = ref cy in
          Array.iteri (fun j b -> c := !c +. (b *. float_of_int (max 0 (x.(j) - y.(j))))) betas;
          if !c < !best then best := !c)
        src;
      !best)

let prop_ramp_line_dominated_and_idempotent seed =
  let rng = Util.Prng.create seed in
  let n = 2 + Util.Prng.int rng 8 in
  let values = Array.make n 0 in
  for i = 1 to n - 1 do
    values.(i) <- values.(i - 1) + 1 + Util.Prng.int rng 3
  done;
  let costs = Array.init n (fun _ -> Util.Prng.float rng 10.) in
  let grid = Offline.Grid.make [| values |] and betas = [| Util.Prng.float rng 3. |] in
  let once = ramp_grid ~grid ~betas costs in
  (* Transform never increases any entry... *)
  let dominated = Array.for_all2 (fun a b -> a <= b +. 1e-12) once costs in
  (* ...and is idempotent: re-applying it changes nothing. *)
  let twice = ramp_grid ~grid ~betas once in
  dominated && Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-12) twice once

(* --- Offline DP --- *)

let tiny_instance rng ~dynamic =
  let d = 1 + Util.Prng.int rng 2 in
  let horizon = 2 + Util.Prng.int rng 3 in
  if dynamic then Sim.Scenarios.random_dynamic ~rng ~d ~horizon ~max_count:2
  else Sim.Scenarios.random_static ~rng ~d ~horizon ~max_count:2

let prop_dp_equals_bruteforce seed =
  let rng = Util.Prng.create seed in
  let inst = tiny_instance rng ~dynamic:(Util.Prng.bool rng) in
  let dp = Offline.Dp.solve_optimal inst in
  let bf = Offline.Brute_force.solve inst in
  Util.Float_cmp.close ~eps:1e-6 dp.Offline.Dp.cost bf.Offline.Dp.cost
  && Util.Float_cmp.close ~eps:1e-6 dp.Offline.Dp.cost
       (Model.Cost.schedule inst dp.Offline.Dp.schedule)

let prop_dp_schedule_feasible seed =
  let rng = Util.Prng.create seed in
  let inst = tiny_instance rng ~dynamic:(Util.Prng.bool rng) in
  Model.Schedule.feasible inst (Offline.Dp.solve_optimal inst).Offline.Dp.schedule

let prop_approx_theorem16 seed =
  let rng = Util.Prng.create seed in
  let d = 1 + Util.Prng.int rng 2 in
  let horizon = 2 + Util.Prng.int rng 4 in
  let inst = Sim.Scenarios.random_static ~rng ~d ~horizon ~max_count:7 in
  let opt = (Offline.Dp.solve_optimal inst).Offline.Dp.cost in
  List.for_all
    (fun eps ->
      let c = (Offline.Dp.solve_approx ~eps inst).Offline.Dp.cost in
      c <= ((1. +. eps) *. opt) +. 1e-6 && c >= opt -. 1e-6)
    [ 1.; 0.3 ]

(* --- Online algorithms --- *)

let prop_alg_a_theorem8 seed =
  let rng = Util.Prng.create seed in
  let d = 1 + Util.Prng.int rng 2 in
  let horizon = 3 + Util.Prng.int rng 5 in
  let inst = Sim.Scenarios.random_static ~rng ~d ~horizon ~max_count:3 in
  let r = Online.Alg_a.run inst in
  let opt = (Offline.Dp.solve_optimal inst).Offline.Dp.cost in
  let cost = Model.Cost.schedule inst r.Online.Alg_a.schedule in
  Model.Schedule.feasible inst r.Online.Alg_a.schedule
  && cost <= (((2. *. float_of_int d) +. 1.) *. opt) +. 1e-6

let prop_alg_a_corollary9 seed =
  let rng = Util.Prng.create seed in
  let d = 1 + Util.Prng.int rng 3 in
  let horizon = 3 + Util.Prng.int rng 5 in
  let inst = Sim.Scenarios.load_independent ~d ~horizon ~seed:(Util.Prng.int rng 100000) in
  let r = Online.Alg_a.run inst in
  let opt = (Offline.Dp.solve_optimal inst).Offline.Dp.cost in
  let cost = Model.Cost.schedule inst r.Online.Alg_a.schedule in
  cost <= ((2. *. float_of_int d) *. opt) +. 1e-6

let prop_alg_a_dominance seed =
  let rng = Util.Prng.create seed in
  let inst =
    Sim.Scenarios.random_static ~rng ~d:(1 + Util.Prng.int rng 2)
      ~horizon:(3 + Util.Prng.int rng 4) ~max_count:3
  in
  let r = Online.Alg_a.run inst in
  let ok = ref true in
  Array.iteri
    (fun t hat ->
      if not (Model.Config.dominates r.Online.Alg_a.schedule.(t) hat) then ok := false)
    r.Online.Alg_a.prefix_last;
  !ok

let prop_alg_b_theorem13 seed =
  let rng = Util.Prng.create seed in
  let d = 1 + Util.Prng.int rng 2 in
  let horizon = 3 + Util.Prng.int rng 4 in
  let inst = Sim.Scenarios.random_dynamic ~rng ~d ~horizon ~max_count:3 in
  let r = Online.Alg_b.run inst in
  let opt = (Offline.Dp.solve_optimal inst).Offline.Dp.cost in
  let cost = Model.Cost.schedule inst r.Online.Alg_b.schedule in
  let bound = (2. *. float_of_int d) +. 1. +. Online.Alg_b.c_of_instance inst in
  Model.Schedule.feasible inst r.Online.Alg_b.schedule && cost <= (bound *. opt) +. 1e-6

let prop_alg_c_theorem15 seed =
  let rng = Util.Prng.create seed in
  let d = 1 + Util.Prng.int rng 2 in
  let horizon = 3 + Util.Prng.int rng 3 in
  let inst = Sim.Scenarios.random_dynamic ~rng ~d ~horizon ~max_count:2 in
  let eps = 0.25 +. Util.Prng.float rng 0.75 in
  let r = Online.Alg_c.run ~eps inst in
  let opt = (Offline.Dp.solve_optimal inst).Offline.Dp.cost in
  let cost = Model.Cost.schedule inst r.Online.Alg_c.schedule in
  let bound = (2. *. float_of_int d) +. 1. +. eps in
  Model.Schedule.feasible inst r.Online.Alg_c.schedule
  && cost <= (bound *. opt) +. 1e-6
  && r.Online.Alg_c.c_refined <= eps +. 1e-9

let prop_prefix_cost_monotone seed =
  let rng = Util.Prng.create seed in
  let inst =
    Sim.Scenarios.random_static ~rng ~d:(1 + Util.Prng.int rng 2)
      ~horizon:(3 + Util.Prng.int rng 4) ~max_count:3
  in
  let engine = Online.Prefix_opt.create inst in
  let prev = ref 0. in
  let ok = ref true in
  for _ = 1 to Model.Instance.horizon inst do
    let { Online.Prefix_opt.prefix_cost; _ } = Online.Prefix_opt.step engine in
    (* A longer prefix can only cost more: restricting an optimal longer
       schedule yields a feasible shorter one. *)
    if prefix_cost < !prev -. 1e-9 then ok := false;
    prev := prefix_cost
  done;
  !ok

let prop_baselines_feasible seed =
  let rng = Util.Prng.create seed in
  let inst =
    Sim.Scenarios.random_static ~rng ~d:(1 + Util.Prng.int rng 2)
      ~horizon:(3 + Util.Prng.int rng 3) ~max_count:3
  in
  Model.Schedule.feasible inst (Online.Baselines.follow_demand inst)
  && Model.Schedule.feasible inst (Online.Baselines.receding_horizon ~window:2 inst)

let prop_graph_paper_equals_dp seed =
  (* Two independent implementations of Section 4.1 agree. *)
  let rng = Util.Prng.create seed in
  let inst = tiny_instance rng ~dynamic:(Util.Prng.bool rng) in
  let g = Offline.Graph_paper.solve inst in
  let dp = Offline.Dp.solve_optimal inst in
  Util.Float_cmp.close ~eps:1e-6 g.Offline.Dp.cost dp.Offline.Dp.cost
  && Model.Schedule.feasible inst g.Offline.Dp.schedule

let prop_witness_invariant seed =
  (* Eq. (18)'s construction satisfies invariant (19) and the Theorem 16
     cost chain on every random optimum. *)
  let rng = Util.Prng.create seed in
  let d = 1 + Util.Prng.int rng 2 in
  let horizon = 2 + Util.Prng.int rng 4 in
  let inst = Sim.Scenarios.random_static ~rng ~d ~horizon ~max_count:8 in
  let gamma = 1.2 +. Util.Prng.float rng 1.3 in
  let opt = Offline.Dp.solve_optimal inst in
  let grid _ = Offline.Grid.power ~gamma (Model.Instance.counts inst) in
  let w = Offline.Approx_witness.build ~gamma ~grid opt.Offline.Dp.schedule in
  Offline.Approx_witness.invariant_holds ~gamma ~opt:opt.Offline.Dp.schedule ~witness:w
  && Model.Schedule.feasible inst w
  && Model.Cost.schedule inst w <= (((2. *. gamma) -. 1.) *. opt.Offline.Dp.cost) +. 1e-6

let prop_blocks_partition seed =
  (* Lemma 7's combinatorial core: every block of algorithm A contains
     exactly one special time slot. *)
  let rng = Util.Prng.create seed in
  let d = 1 + Util.Prng.int rng 2 in
  let horizon = 4 + Util.Prng.int rng 8 in
  let inst = Sim.Scenarios.random_static ~rng ~d ~horizon ~max_count:3 in
  let r = Online.Alg_a.run inst in
  let ok = ref true in
  for typ = 0 to d - 1 do
    let blocks = Online.Analysis.blocks_a r ~typ ~horizon in
    let taus = Online.Analysis.special_slots blocks in
    let per = Online.Analysis.blocks_per_special blocks taus in
    if List.fold_left ( + ) 0 per <> List.length blocks then ok := false;
    if List.exists (fun c -> c < 1) per then ok := false
  done;
  !ok

let prop_fractional_refine_preserves_g seed =
  (* g evaluated on matching whole/unit configurations agrees. *)
  let rng = Util.Prng.create seed in
  let inst = Sim.Scenarios.random_static ~rng ~d:1 ~horizon:3 ~max_count:3 in
  let k = 2 + Util.Prng.int rng 4 in
  let refined = Fractional.Relax.refine ~granularity:k inst in
  let time = Util.Prng.int rng 3 in
  let ok = ref true in
  for whole = 1 to Model.Instance.max_count inst ~typ:0 do
    let a = Model.Cost.operating inst ~time [| whole |] in
    let b = Model.Cost.operating refined ~time [| whole * k |] in
    if Float.is_finite a <> Float.is_finite b then ok := false
    else if Float.is_finite a && not (Util.Float_cmp.close ~eps:1e-5 a b) then ok := false
  done;
  !ok

let prop_ramp_across_random_grids seed =
  (* The mismatched-grid transform equals the brute-force minimum, on
     random 1-D and 2-D grids (2-D runs through the scratch planes). *)
  let rng = Util.Prng.create seed in
  let d = 1 + Util.Prng.int rng 2 in
  let axis () =
    let n = 1 + Util.Prng.int rng 5 in
    let vals = Array.make n 0 in
    for i = 1 to n - 1 do
      vals.(i) <- vals.(i - 1) + 1 + Util.Prng.int rng 3
    done;
    vals
  in
  let src_grid = Offline.Grid.make (Array.init d (fun _ -> axis ())) in
  let dst_grid = Offline.Grid.make (Array.init d (fun _ -> axis ())) in
  let src = Array.init (Offline.Grid.size src_grid) (fun _ -> Util.Prng.float rng 10.) in
  let betas = Array.init d (fun _ -> Util.Prng.float rng 3.) in
  let n = Offline.Grid.size dst_grid in
  let scratch () = Offline.Plane.create (Offline.Grid.size src_grid * n) in
  let src_p = Offline.Plane.create (Array.length src) and dst = Offline.Plane.create n in
  Offline.Plane.of_array src src_p ~off:0;
  Offline.Transform.ramp_across_plane ~ops:(Array.make n 0.) ~src_grid ~dst_grid ~betas
    ~src:src_p ~soff:0 ~tmp:(scratch (), scratch ()) dst ~doff:0;
  let got = Offline.Plane.to_array dst ~off:0 ~len:n in
  Array.for_all2
    (fun e g -> Float.abs (e -. g) <= 1e-9)
    (brute_ramp ~src_grid ~dst_grid ~betas src)
    got

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* The canonical form of an arrival plane [a] over [grid]: +infinity at
   every state x that some z <= x, z <> x, reaches more cheaply by
   power-ups alone, beyond a 1e-9 relative allowance — a rank-order
   sweep keeping U, the power-up-only ramp of [a]:
   cand(x) = min_j U(x - e_j) + beta_j (x_j - x_j^prev) over the axes
   where x is not at the axis start, and U(x) = min (a(x), cand(x)). *)
let canonical_plane grid ~betas a =
  let d = Offline.Grid.dim grid in
  let axes = Array.init d (Offline.Grid.axis_values grid) in
  let u = Array.make (Array.length a) infinity in
  Array.mapi
    (fun r ar ->
      let x = Offline.Grid.config_at grid r in
      let cand = ref infinity in
      for j = 0 to d - 1 do
        let k = ref 0 in
        while axes.(j).(!k) <> x.(j) do incr k done;
        if !k > 0 then begin
          let y = Array.copy x in
          y.(j) <- axes.(j).(!k - 1);
          let c =
            u.(Option.get (Offline.Grid.index_of grid y))
            +. (betas.(j) *. float_of_int (x.(j) - y.(j)))
          in
          if c < !cand then cand := c
        end
      done;
      u.(r) <- Float.min ar !cand;
      if ar > !cand +. (1e-9 *. Float.max 1. (Float.abs !cand)) then infinity else ar)
    a

(* The plane property's instances: [tiny_instance]'s (one or two types),
   where a slot's load is sometimes zero or the slot's capacity to
   within [Cost.cap_eps] (just above it, feasible only through that
   tolerance), and a third of them size-varying (Section 4.3): each
   slot makes a random number of each type's servers available, so the
   grids change from slot to slot. *)
let layer_instance rng =
  let inst = tiny_instance rng ~dynamic:(Util.Prng.bool rng) in
  let types = inst.Model.Instance.types in
  let horizon = Model.Instance.horizon inst in
  let avail =
    if Util.Prng.int rng 3 > 0 then None
    else begin
      let a =
        Array.init horizon (fun _ ->
            Array.map (fun st -> Util.Prng.int rng (st.Model.Server_type.count + 1)) types)
      in
      Some (fun ~time ~typ -> a.(time).(typ))
    end
  in
  let make load = Model.Instance.make ?avail ~types ~load ~cost:inst.Model.Instance.cost () in
  let sized = make inst.Model.Instance.load in
  make
    (Array.mapi
       (fun time l ->
         match Util.Prng.int rng 6 with
         | 0 -> 0.
         | 1 ->
             Float.max 0.
               (Model.Instance.capacity_at sized ~time +. Util.Prng.float rng 2e-9 -. 1e-9)
         | _ -> l)
       inst.Model.Instance.load)

(* The Bigarray plane arena against two references built from the same
   per-slot grids.  The brute-force reference builds every arrival layer
   from the ramp's definition ([brute_ramp], the minimum over every
   state of the previous slot's grid) and adds operating costs through
   [Cost.operating] rather than the warm-swept line fill; the engine's
   layers, observed through [?on_layer], must match it within 1e-9 at
   every state they keep finite.  The kernel reference is the full,
   unpruned DP: per slot, [Dp.fill_row], then the fused
   [ramp_grid_plane] (equal grids) or [ramp_across_plane] from the raw
   previous layer.  Each engine layer must be the [canonical_plane] of
   the kernel layer bit for bit, and the two must ramp to the same bits.
   The grids are dense, a random sub-grid per slot, or a power grid of
   random ratio per slot, over each slot's available servers; the
   latter two, and dense grids of size-varying instances
   ([layer_instance]), exercise the cross-grid [ramp_across_plane]
   ping-pong path.  Zero loads make every state live, and loads at the
   capacity leave one or a few states above it.  The final frontier
   also round-trips through the sexp codec bit-exactly. *)
let prop_plane_engine_matches_reference seed =
  let rng = Util.Prng.create seed in
  let inst = layer_instance rng in
  let instf = Model.Instance.fold_switching inst in
  let horizon = Model.Instance.horizon instf in
  let d = Model.Instance.num_types instf in
  let counts time = Array.init d (fun typ -> instf.Model.Instance.avail ~time ~typ) in
  let betas =
    Array.map (fun st -> st.Model.Server_type.switching_cost) instf.Model.Instance.types
  in
  let grids =
    match Util.Prng.int rng 3 with
    | 0 -> Array.init horizon (Offline.Dp.dense_grids instf)
    | 1 -> Array.init horizon (fun time -> random_subgrid rng (counts time))
    | _ ->
        Array.init horizon (fun time ->
            Offline.Grid.power ~gamma:(1.3 +. Util.Prng.float rng 1.7) (counts time))
  in
  let zero = Model.Config.zero d in
  let brute = Array.make horizon [||] and kernel = Array.make horizon [||] in
  for time = 0 to horizon - 1 do
    let g = grids.(time) in
    let n = Offline.Grid.size g in
    let ops =
      Array.init n (fun i ->
          Model.Cost.operating instf ~time (Offline.Grid.config_at g i))
    in
    let row = Array.make n 0. in
    Offline.Dp.fill_row instf g ~time row;
    if time = 0 then begin
      let climb =
        Array.init n (fun i ->
            Model.Config.switching_cost instf.Model.Instance.types ~from_:zero
              ~to_:(Offline.Grid.config_at g i))
      in
      brute.(0) <- Array.mapi (fun i c -> c +. ops.(i)) climb;
      kernel.(0) <- Array.mapi (fun i c -> c +. row.(i)) climb
    end
    else begin
      let src_grid = grids.(time - 1) in
      brute.(time) <-
        Array.mapi
          (fun i c -> c +. ops.(i))
          (brute_ramp ~src_grid ~dst_grid:g ~betas brute.(time - 1));
      let prev = kernel.(time - 1) in
      let src = Offline.Plane.create (Array.length prev) in
      Offline.Plane.of_array prev src ~off:0;
      let dst = Offline.Plane.create n in
      if Offline.Grid.equal src_grid g then begin
        Offline.Plane.blit ~src ~soff:0 ~dst ~doff:0 ~len:n;
        Offline.Transform.ramp_grid_plane ~ops:row ~grid:g ~betas dst ~off:0
      end
      else begin
        let scratch () = Offline.Plane.create (Array.length prev * n) in
        Offline.Transform.ramp_across_plane ~ops:row ~src_grid ~dst_grid:g ~betas ~src
          ~soff:0 ~tmp:(scratch (), scratch ()) dst ~doff:0
      end;
      kernel.(time) <- Offline.Plane.to_array dst ~off:0 ~len:n
    end
  done;
  let close a b =
    (not (Float.is_finite a)) || Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)
  in
  let ok = ref true in
  let final = ref None in
  (try
     ignore
       (Offline.Dp.solve ~grids:(Array.get grids)
          ~on_layer:(fun ~time thunk ->
            let f = thunk () in
            let got = f.Offline.Dp.layers.(time) in
            let grid = grids.(time) in
            if
              not
                (Array.for_all2 close got brute.(time)
                && bits_equal got (canonical_plane grid ~betas kernel.(time))
                && bits_equal (ramp_grid ~grid ~betas got) (ramp_grid ~grid ~betas kernel.(time))
                )
            then ok := false;
            if time = horizon - 1 then final := Some f)
          inst)
   with Invalid_argument _ ->
     (* Infeasible instances raise after the forward pass; the layer
        comparisons above still ran for every slot. *)
     ());
  !ok
  &&
  match !final with
  | None -> false
  | Some f -> (
      match Offline.Dp.frontier_of_sexp (Offline.Dp.frontier_to_sexp f) with
      | Error _ -> false
      | Ok f' ->
          f'.Offline.Dp.next_time = f.Offline.Dp.next_time
          && Array.for_all2 bits_equal f.Offline.Dp.layers f'.Offline.Dp.layers)

(* --- Operating-cost rows --- *)

(* The reused-row fill equals the memo-backed [Dp.fill_layer] bit for
   bit.  Dynamic runs draw a fresh sub-grid per slot, so a row is
   refilled across different rank spaces of the same size. *)
let row_fill_matches_memo rng ~dynamic inst =
  let counts = Model.Instance.counts inst in
  let cache = Model.Cost.make_cache inst in
  let rows = Hashtbl.create 4 in
  let row_of n =
    match Hashtbl.find_opt rows n with
    | Some row -> row
    | None ->
        let row = Array.make n 0. in
        Hashtbl.add rows n row;
        row
  in
  let ok = ref true in
  for time = 0 to Model.Instance.horizon inst - 1 do
    let grid = if dynamic then random_subgrid rng counts else Offline.Grid.dense counts in
    let memo = Offline.Dp.fill_layer cache grid ~time in
    let row = row_of (Offline.Grid.size grid) in
    Offline.Dp.fill_row inst grid ~time row;
    if not (bits_equal memo row) then ok := false
  done;
  !ok

let prop_row_fill_matches_memo seed =
  let rng = Util.Prng.create seed in
  let dynamic = Util.Prng.bool rng in
  row_fill_matches_memo rng ~dynamic (tiny_instance rng ~dynamic)

(* Large-fleet's grids (2501 states, a sub-grid several hundred) give
   long lines with long warm chains. *)
let prop_row_fill_matches_memo_large_fleet seed =
  let rng = Util.Prng.create seed in
  let dynamic = Util.Prng.bool rng in
  row_fill_matches_memo rng ~dynamic (Sim.Scenarios.large_fleet ~horizon:3 ~seed ())

(* --- Dual bounds --- *)

(* Up to 3 types of up to 6 servers, each a power curve with exponent
   in [1.05, 3] or a quadratic; loads are zero, near the whole fleet's
   capacity (so responses sit at the per-server cap) or anywhere in
   between. *)
let dual_instance rng =
  let d = 1 + Util.Prng.int rng 3 and horizon = 2 + Util.Prng.int rng 2 in
  let types =
    Array.init d (fun j ->
        Model.Server_type.make
          ~name:(Printf.sprintf "t%d" j)
          ~count:(1 + Util.Prng.int rng 6)
          ~switching_cost:(Util.Prng.float rng 3.)
          ~cap:(0.5 +. Util.Prng.float rng 1.5)
          ())
  in
  let fns =
    Array.init d (fun _ ->
        if Util.Prng.bool rng then
          Convex.Fn.power ~idle:(Util.Prng.float rng 2.) ~coef:(0.1 +. Util.Prng.float rng 2.)
            ~expo:(1.05 +. Util.Prng.float rng 1.95)
        else
          Convex.Fn.quadratic ~c0:(Util.Prng.float rng 1.) ~c1:(Util.Prng.float rng 1.)
            ~c2:(0.05 +. Util.Prng.float rng 1.))
  in
  let capacity =
    Array.fold_left
      (fun acc st -> acc +. (float_of_int st.Model.Server_type.count *. st.Model.Server_type.cap))
      0. types
  in
  let load =
    Array.init horizon (fun _ ->
        match Util.Prng.int rng 4 with
        | 0 -> 0.
        | 1 -> capacity *. (0.9 +. Util.Prng.float rng 0.1)
        | _ -> Util.Prng.float rng capacity)
  in
  Model.Instance.make_static ~types ~load ~fns ()

(* --- Reentrant fills --- *)

(* The counters a layer fill adds at its [line_flush]. *)
let fill_counts () =
  List.map
    (fun name -> match Obs.Counter.find name with Some c -> Obs.Counter.value c | None -> 0)
    [ "cost.rank_misses"; "dispatch.calls"; "dispatch.analytic_solves"; "dispatch.newton_evals" ]

(* A layer fill through its own context, one cell per [step] (false
   once the layer is done), lines in rank order. *)
let cell_stepper (inst, grid, time) =
  let d = Offline.Grid.dim grid in
  let len = Offline.Grid.axis_length grid (d - 1) in
  let ctx = Model.Cost.line_ctx ~axes:(Array.init d (Offline.Grid.axis_values grid)) in
  Model.Cost.line_layer ctx inst ~time;
  let table = Array.make (Offline.Grid.size grid) nan in
  let pos = Array.make (d - 1) 0 in
  let rank0 = ref 0 and i = ref 0 in
  let step () =
    !rank0 < Array.length table
    && begin
         if !i = 0 then Model.Cost.line_start ctx ~table ~rank0:!rank0 ~pos;
         Model.Cost.line_cell ctx !i;
         incr i;
         if !i = len then begin
           i := 0;
           rank0 := !rank0 + len;
           Offline.Grid.next_line grid pos
         end;
         true
       end
  in
  (ctx, table, step)

(* Two layer fills, each through its own context, driven alternately
   cell by cell (a cell of A, a cell of B, until both are done), give
   each layer [Dp.fill_row]'s bits, and each context's [line_flush]
   adds exactly the counts of its layer filled alone.  The two layers
   are slots of one instance or of two, each on its dense grid, a
   random sub-grid or a power grid; the instances are large-fleet, or
   up to 3 power and quadratic types. *)
let prop_interleaved_fills_match_alone seed =
  let rng = Util.Prng.create seed in
  let shared = if Util.Prng.bool rng then Some (dual_instance rng) else None in
  let layer () =
    let inst =
      match shared with
      | Some inst -> inst
      | None ->
          if Util.Prng.int rng 3 = 0 then Sim.Scenarios.large_fleet ~horizon:3 ~seed ()
          else dual_instance rng
    in
    let counts = Model.Instance.counts inst in
    let grid =
      match Util.Prng.int rng 3 with
      | 0 -> Offline.Grid.dense counts
      | 1 -> random_subgrid rng counts
      | _ -> Offline.Grid.power ~gamma:(1.3 +. Util.Prng.float rng 1.7) counts
    in
    (inst, grid, Util.Prng.int rng (Model.Instance.horizon inst))
  in
  let alone (inst, grid, time) =
    let before = fill_counts () in
    let row = Array.make (Offline.Grid.size grid) 0. in
    Offline.Dp.fill_row inst grid ~time row;
    (row, List.map2 ( - ) (fill_counts ()) before)
  in
  let a = layer () and b = layer () in
  let row_a, counts_a = alone a and row_b, counts_b = alone b in
  let ctx_a, table_a, step_a = cell_stepper a and ctx_b, table_b, step_b = cell_stepper b in
  let more = ref true in
  while !more do
    let more_a = step_a () in
    let more_b = step_b () in
    more := more_a || more_b
  done;
  let c0 = fill_counts () in
  Model.Cost.line_flush ctx_a;
  let c1 = fill_counts () in
  Model.Cost.line_flush ctx_b;
  let c2 = fill_counts () in
  bits_equal table_a row_a && bits_equal table_b row_b
  && List.map2 ( - ) c1 c0 = counts_a
  && List.map2 ( - ) c2 c1 = counts_b

(* A memo's dispatch sweep: [solve_with] over one sweep, reused for a
   run of unrelated problems (a new problem, or the previous one's
   pieces again, physically), gives each [solve]'s assignment and
   objective bit for bit, and the same counts. *)
let prop_solve_with_matches_solve seed =
  let rng = Util.Prng.create seed in
  let counts () =
    List.map
      (fun name -> match Obs.Counter.find name with Some c -> Obs.Counter.value c | None -> 0)
      [ "dispatch.calls"; "dispatch.analytic_solves"; "dispatch.newton_evals"; "scalar_min.iters" ]
  in
  let counted f =
    let before = counts () in
    let r = f () in
    (r, List.map2 ( - ) (counts ()) before)
  in
  let sw = Convex.Dispatch.sweep () in
  let pieces = ref [||] in
  List.for_all
    (fun _ ->
      if Array.length !pieces = 0 || Util.Prng.bool rng then begin
        let d = 1 + Util.Prng.int rng 4 in
        pieces :=
          Array.init d (fun _ ->
              { Convex.Dispatch.fn = random_sweep_fn rng; upper = 0.3 +. Util.Prng.float rng 0.9 })
      end;
      let cap = Array.fold_left (fun acc p -> acc +. p.Convex.Dispatch.upper) 0. !pieces in
      let total = Util.Prng.float rng (1.1 *. cap) in
      let cold, cold_counts = counted (fun () -> Convex.Dispatch.solve !pieces ~total) in
      let held, held_counts = counted (fun () -> Convex.Dispatch.solve_with sw !pieces ~total) in
      cold_counts = held_counts
      &&
      match (cold, held) with
      | Some a, Some b ->
          bits_equal a.Convex.Dispatch.assignment b.Convex.Dispatch.assignment
          && bits_equal [| a.Convex.Dispatch.objective |] [| b.Convex.Dispatch.objective |]
      | None, None -> true
      | _ -> false)
    (List.init 8 Fun.id)

(* A refitted line bound is a lower bound on g_t: for every line of
   every slot's dense grid, after each of its cells is computed, the
   bound is refitted to each later cell q from four multipliers: 0, the
   sweep's ([Cost.line_bound]'s), and 0.1x and 10x that one.  From the
   sweep's multiplier the refits also chain along the line, each from
   the previous one's multiplier, as [Forward]'s proofs do.  After each
   refit the bound must stay at most the cold [Cost.operating] and at
   most [Dp.fill_row]'s value at q and at every cell after it, within
   1e-12 relative. *)
let prop_refit_bound_sound seed =
  let rng = Util.Prng.create seed in
  let inst = dual_instance rng in
  let grid = Offline.Grid.dense (Model.Instance.counts inst) in
  let d = Offline.Grid.dim grid and n = Offline.Grid.size grid in
  let values = Offline.Grid.axis_values grid (d - 1) in
  let len = Array.length values in
  let ok = ref true in
  for time = 0 to Model.Instance.horizon inst - 1 do
    let row = Array.make n 0. in
    Offline.Dp.fill_row inst grid ~time row;
    let cold =
      Array.init n (fun r -> Model.Cost.operating inst ~time (Offline.Grid.config_at grid r))
    in
    let below b ~from ~rank0 =
      for q = from to len - 1 do
        let lower = b.Model.Cost.icept +. (b.Model.Cost.slope *. float_of_int values.(q)) in
        List.iter
          (fun g -> if lower > g +. (1e-12 *. Float.max 1. (Float.abs g)) then ok := false)
          [ cold.(rank0 + q); row.(rank0 + q) ]
      done
    in
    let ctx = Model.Cost.line_ctx ~axes:(Array.init d (Offline.Grid.axis_values grid)) in
    Model.Cost.line_layer ctx inst ~time;
    let table = Array.make n nan in
    let pos = Array.make (d - 1) 0 in
    for k = 0 to (n / len) - 1 do
      let rank0 = k * len in
      Model.Cost.line_start ctx ~table ~rank0 ~pos;
      let b = { Model.Cost.icept = 0.; slope = 0.; mu = 0. } in
      for i = 0 to len - 1 do
        Model.Cost.line_cell ctx i;
        if Model.Cost.line_bound ctx b then begin
          below b ~from:(i + 1) ~rank0;
          let mu = b.Model.Cost.mu in
          for q = i + 1 to len - 1 do
            if Model.Cost.line_refit ctx b ~v:values.(q) then below b ~from:q ~rank0
          done;
          List.iter
            (fun start ->
              for q = i + 1 to len - 1 do
                b.Model.Cost.mu <- start;
                if Model.Cost.line_refit ctx b ~v:values.(q) then below b ~from:q ~rank0
              done)
            [ 0.; mu; 0.1 *. mu; 10. *. mu ]
        end
      done;
      Offline.Grid.next_line grid pos
    done;
    Model.Cost.line_flush ctx
  done;
  !ok

(* [Prefix_opt]'s arrival plane, read back through [save], is the
   canonical form of the plane rebuilt step by step from the memo-backed
   fill ([Dp.fill_layer] then [Transform.ramp_grid_plane], starting from
   the all-off state) — bit for bit after every step, on a dense grid, a
   random sub-grid or a power grid.  The two planes also ramp to the
   same bits, and the step's argmins and prefix cost are the rebuilt
   plane's.  Up to 3 types of up to 6 servers give lines long enough
   for the engine to prove the tail of a line dominated and skip it. *)
let prop_prefix_opt_matches_memo_rebuild seed =
  let rng = Util.Prng.create seed in
  let d = 1 + Util.Prng.int rng 3 and horizon = 3 + Util.Prng.int rng 4 in
  let inst =
    if Util.Prng.bool rng then Sim.Scenarios.random_dynamic ~rng ~d ~horizon ~max_count:6
    else Sim.Scenarios.random_static ~rng ~d ~horizon ~max_count:6
  in
  let instf = Model.Instance.fold_switching inst in
  let counts = Model.Instance.counts instf in
  let grid =
    match Util.Prng.int rng 3 with
    | 0 -> Offline.Grid.dense counts
    | 1 -> random_subgrid rng counts
    | _ -> Offline.Grid.power ~gamma:2. counts
  in
  let n = Offline.Grid.size grid in
  let betas =
    Array.map (fun st -> st.Model.Server_type.switching_cost) instf.Model.Instance.types
  in
  let cache = Model.Cost.make_cache instf in
  let reference = Offline.Plane.create n in
  Offline.Plane.fill_range reference ~off:0 ~len:n infinity;
  (match Offline.Grid.index_of grid (Model.Config.zero (Offline.Grid.dim grid)) with
  | Some zero -> Bigarray.Array1.set reference zero 0.
  | None -> assert false);
  let engine = Online.Prefix_opt.create ~grid inst in
  let saved_arrival () =
    match Online.Prefix_opt.save engine with
    | Util.Sexp.List (_ :: fields) -> Util.Snapshot.floats_of_field fields "arrival"
    | Util.Sexp.List [] | Util.Sexp.Atom _ -> Error "unexpected payload"
  in
  let ok = ref true in
  for time = 0 to Model.Instance.horizon instf - 1 do
    let ops = Offline.Dp.fill_layer cache grid ~time in
    Offline.Transform.ramp_grid_plane ~ops ~grid ~betas reference ~off:0;
    let rebuilt = Offline.Plane.to_array reference ~off:0 ~len:n in
    let step = Online.Prefix_opt.step engine in
    let best = Array.fold_left Float.min infinity rebuilt in
    let lo = ref (-1) and hi = ref (-1) in
    Array.iteri
      (fun r c ->
        if c = best then begin
          if !lo < 0 then lo := r;
          hi := r
        end)
      rebuilt;
    if
      not
        (step.Online.Prefix_opt.prefix_cost = best
        && step.Online.Prefix_opt.last = Offline.Grid.config_at grid !lo
        && step.Online.Prefix_opt.last_hi = Offline.Grid.config_at grid !hi)
    then ok := false;
    match saved_arrival () with
    | Ok arrival ->
        if
          not
            (bits_equal arrival (canonical_plane grid ~betas rebuilt)
            && bits_equal (ramp_grid ~grid ~betas arrival) (ramp_grid ~grid ~betas rebuilt))
        then ok := false
    | Error _ -> ok := false
  done;
  !ok

let prop_sexp_roundtrip seed =
  (* print . parse = id on generated trees. *)
  let rng = Util.Prng.create seed in
  let rec gen depth =
    if depth = 0 || Util.Prng.bool rng then
      Util.Sexp.Atom (Printf.sprintf "a%d" (Util.Prng.int rng 1000))
    else
      Util.Sexp.List (List.init (Util.Prng.int rng 4) (fun _ -> gen (depth - 1)))
  in
  let tree = gen 4 in
  match Util.Sexp.parse (Util.Sexp.to_string tree) with
  | Ok back -> back = tree
  | Error _ -> false

let prop_csv_roundtrip seed =
  let rng = Util.Prng.create seed in
  let cell () =
    let glyphs = [| "x"; "1.5"; "a,b"; "q\"q"; "plain text"; "" |] in
    glyphs.(Util.Prng.int rng (Array.length glyphs))
  in
  let cols = 1 + Util.Prng.int rng 4 in
  let header = List.init cols (fun i -> Printf.sprintf "c%d" i) in
  let rows = List.init (1 + Util.Prng.int rng 5) (fun _ -> List.init cols (fun _ -> cell ())) in
  let path = Filename.temp_file "prop" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Util.Csv.write ~path ~header rows;
      Util.Csv.read_body ~path ~header = rows)

let prop_streaming_equals_batch seed =
  (* The streaming session replays the batch algorithm exactly. *)
  let rng = Util.Prng.create seed in
  let d = 1 + Util.Prng.int rng 2 in
  let horizon = 3 + Util.Prng.int rng 5 in
  let inst = Sim.Scenarios.random_static ~rng ~d ~horizon ~max_count:3 in
  let batch = (Online.Alg_a.run inst).Online.Alg_a.schedule in
  let session =
    Online.Streaming.alg_a ~max_horizon:horizon ~types:inst.Model.Instance.types
      ~fns:(Array.init d (fun typ -> inst.Model.Instance.cost ~time:0 ~typ))
      ()
  in
  let ok = ref true in
  Array.iteri
    (fun t load ->
      let x = Online.Streaming.feed session load in
      if not (Model.Config.equal x batch.(t)) then ok := false)
    inst.Model.Instance.load;
  !ok

(* A stepper's decisions over any window [from_, until) equal a replay
   of its power-ups and power-downs from all-off, before and after a
   save/restore round trip; [save] of the restored stepper is [save]'s
   own bytes, and both steppers then continue identically.  The rule,
   instance, stream length, targets and windows are random; homog runs
   on [d] copies of one type. *)
let prop_stepper_windows_match_replay seed =
  let rng = Util.Prng.create seed in
  let d = 1 + Util.Prng.int rng 3 in
  let horizon = 1 + Util.Prng.int rng 120 in
  let inst, make =
    match Util.Prng.int rng 4 with
    | 0 -> (Sim.Scenarios.random_static ~rng ~d ~horizon ~max_count:5, Online.Stepper.alg_a)
    | 1 -> (Sim.Scenarios.random_dynamic ~rng ~d ~horizon ~max_count:5, Online.Stepper.alg_b)
    | 2 ->
        ( Sim.Scenarios.load_independent ~d ~horizon ~seed:(Util.Prng.int rng 100000),
          Online.Stepper.alg_det2d )
    | _ ->
        let one = Sim.Scenarios.random_static ~rng ~d:1 ~horizon ~max_count:5 in
        ( Model.Instance.make_static
            ~types:(Array.make d one.Model.Instance.types.(0))
            ~load:one.Model.Instance.load
            ~fns:(Array.make d (one.Model.Instance.cost ~time:0 ~typ:0))
            (),
          Online.Stepper.alg_homog )
  in
  let d = Model.Instance.num_types inst in
  let hats =
    Array.init horizon (fun _ ->
        Array.init d (fun typ -> Util.Prng.int rng (Model.Instance.max_count inst ~typ + 1)))
  in
  let fed = Util.Prng.int rng (horizon + 1) in
  let stepper = make inst in
  for time = 0 to fed - 1 do
    ignore (Online.Stepper.step stepper ~time ~hat:hats.(time))
  done;
  let replay s =
    let ups = Online.Stepper.power_ups s and downs = Online.Stepper.power_downs s in
    let x = Array.make d 0 in
    Array.init fed (fun time ->
        List.iter (fun (u, j, c) -> if u = time then x.(j) <- x.(j) - c) downs;
        List.iter (fun (u, j, c) -> if u = time then x.(j) <- x.(j) + c) ups;
        Array.copy x)
  in
  let windows =
    List.init 6 (fun _ ->
        let a = Util.Prng.int rng (fed + 1) and b = Util.Prng.int rng (fed + 1) in
        (min a b, max a b))
  in
  let windows_match s =
    let all = replay s in
    Online.Stepper.decisions s ~from_:0 = all
    && List.for_all
         (fun (from_, until) ->
           Online.Stepper.decisions s ~from_ ~until = Array.sub all from_ (until - from_)
           && Online.Stepper.decisions s ~from_ = Array.sub all from_ (fed - from_))
         windows
  in
  let payload = Online.Stepper.save stepper in
  let restored = make inst in
  Result.is_ok (Online.Stepper.restore restored payload)
  && windows_match stepper && windows_match restored
  && replay stepper = replay restored
  && Util.Sexp.to_string (Online.Stepper.save restored) = Util.Sexp.to_string payload
  &&
  let continues = ref true in
  for time = fed to horizon - 1 do
    let a = Online.Stepper.step stepper ~time ~hat:hats.(time)
    and b = Online.Stepper.step restored ~time ~hat:hats.(time) in
    if a <> b then continues := false
  done;
  !continues
  && Util.Sexp.to_string (Online.Stepper.save stepper)
     = Util.Sexp.to_string (Online.Stepper.save restored)

let prop_fold_switching_identity seed =
  (* Every schedule costs the same under the folded instance. *)
  let rng = Util.Prng.create seed in
  let d = 1 + Util.Prng.int rng 2 in
  let horizon = 2 + Util.Prng.int rng 4 in
  let types =
    Array.init d (fun j ->
        Model.Server_type.make
          ~name:(Printf.sprintf "t%d" j)
          ~count:(1 + Util.Prng.int rng 2)
          ~switching_cost:(Util.Prng.float rng 3.)
          ~switch_down:(Util.Prng.float rng 3.)
          ~cap:(1. +. Util.Prng.float rng 2.)
          ())
  in
  let fns = Array.init d (fun _ -> random_fn rng) in
  let load = Array.init horizon (fun _ -> 0.) in
  let inst = Model.Instance.make_static ~types ~load ~fns () in
  let folded = Model.Instance.fold_switching inst in
  let schedule =
    Array.init horizon (fun _ ->
        Array.init d (fun j -> Util.Prng.int rng (types.(j).Model.Server_type.count + 1)))
  in
  Util.Float_cmp.close ~eps:1e-9
    (Model.Cost.schedule inst schedule)
    (Model.Cost.schedule folded schedule)

let prop_opt_monotone_in_fleet seed =
  (* Adding servers never raises the optimal cost. *)
  let rng = Util.Prng.create seed in
  let d = 1 + Util.Prng.int rng 2 in
  let horizon = 2 + Util.Prng.int rng 3 in
  let inst = Sim.Scenarios.random_static ~rng ~d ~horizon ~max_count:2 in
  let bigger_types =
    Array.map
      (fun st -> Model.Server_type.with_count st (st.Model.Server_type.count + 1))
      inst.Model.Instance.types
  in
  let bigger =
    Model.Instance.make_static ~types:bigger_types ~load:inst.Model.Instance.load
      ~fns:(Array.init d (fun typ -> inst.Model.Instance.cost ~time:0 ~typ))
      ()
  in
  (Offline.Dp.solve_optimal bigger).Offline.Dp.cost
  <= (Offline.Dp.solve_optimal inst).Offline.Dp.cost +. 1e-6

let prop_sim_conservation seed =
  (* served + unserved <= arrivals under any boot delays / failures. *)
  let rng = Util.Prng.create seed in
  let d = 1 + Util.Prng.int rng 2 in
  let horizon = 3 + Util.Prng.int rng 4 in
  let inst = Sim.Scenarios.random_static ~rng ~d ~horizon ~max_count:3 in
  let { Offline.Dp.schedule; _ } = Offline.Dp.solve_optimal inst in
  let config =
    { Dcsim.Sim.boot_delay = Array.init d (fun _ -> Util.Prng.int rng 3);
      carry_backlog = Util.Prng.bool rng;
      failures =
        (if Util.Prng.bool rng then
           Some { Dcsim.Sim.rate = Util.Prng.float rng 0.3; repair_slots = 1 + Util.Prng.int rng 3; seed }
         else None) }
  in
  let m = Dcsim.Sim.run_schedule ~config inst schedule in
  let arrived = Array.fold_left ( +. ) 0. inst.Model.Instance.load in
  m.Dcsim.Sim.served +. m.Dcsim.Sim.unserved <= arrived +. 1e-6
  && m.Dcsim.Sim.served >= -.1e-9

let prop_opt_lower_bounds_everything seed =
  (* OPT really is minimal among everything else we can produce. *)
  let rng = Util.Prng.create seed in
  let inst =
    Sim.Scenarios.random_static ~rng ~d:(1 + Util.Prng.int rng 2)
      ~horizon:(3 + Util.Prng.int rng 3) ~max_count:3
  in
  let opt = (Offline.Dp.solve_optimal inst).Offline.Dp.cost in
  let candidates =
    [ Model.Cost.schedule inst (Online.Alg_a.run inst).Online.Alg_a.schedule;
      Model.Cost.schedule inst (Online.Baselines.follow_demand inst);
      Model.Cost.schedule inst (Online.Baselines.receding_horizon ~window:2 inst) ]
  in
  List.for_all (fun c -> c >= opt -. 1e-6) candidates

let () =
  Alcotest.run ~and_exit:false "props"
    [ ( "convex",
        [ mk_test ~count:100 ~name:"constructors produce convex increasing fns"
            prop_fn_convex_increasing;
          mk_test ~count:100 ~name:"combinators preserve convexity"
            prop_fn_combinators_preserve_convexity;
          mk_test ~count:200 ~name:"inv_deriv = derivative bisection"
            prop_inv_deriv_matches_bisection;
          mk_test ~count:100 ~name:"closed derivative = finite difference"
            prop_fn_deriv_matches_finite_difference
        ] );
      ( "dispatch",
        [ mk_test ~count:100 ~name:"solution is a valid capped-simplex point"
            prop_dispatch_valid_simplex_point;
          mk_test ~count:50 ~name:"no random feasible point beats the solver"
            prop_dispatch_beats_random_feasible_points;
          mk_test ~count:50 ~name:"agrees with the greedy oracle" prop_dispatch_matches_greedy;
          mk_test ~count:200 ~name:"analytic path = numeric path"
            prop_dispatch_analytic_matches_numeric;
          mk_test ~count:100 ~name:"warm line sweep = per-cell solve"
            prop_sweep_line_matches_per_cell;
          mk_test ~count:100 ~name:"solve in a held sweep = solve" prop_solve_with_matches_solve
        ] );
      ( "transform",
        [ mk_test ~count:100 ~name:"ramp_line dominates input and is idempotent"
            prop_ramp_line_dominated_and_idempotent
        ] );
      ( "offline",
        [ mk_test ~count:40 ~name:"DP = brute force" prop_dp_equals_bruteforce;
          mk_test ~count:40 ~name:"DP schedule feasible" prop_dp_schedule_feasible;
          mk_test ~count:20 ~name:"Theorem 16: (1+eps)-approximation" prop_approx_theorem16;
          mk_test ~count:60 ~name:"plane arena = reference float-array DP"
            prop_plane_engine_matches_reference;
          mk_test ~count:60 ~name:"reused-row fill = memo fill" prop_row_fill_matches_memo;
          mk_test ~count:10 ~name:"reused-row fill = memo fill (large fleet)"
            prop_row_fill_matches_memo_large_fleet;
          mk_test ~count:300 ~name:"refitted dual bound <= g_t" prop_refit_bound_sound;
          mk_test ~count:100 ~name:"interleaved layer fills = fills alone"
            prop_interleaved_fills_match_alone
        ] );
      ( "systems",
        [ mk_test ~count:25 ~name:"streaming session = batch run" prop_streaming_equals_batch;
          mk_test ~count:200 ~name:"stepper windows = replay of its power events"
            prop_stepper_windows_match_replay;
          mk_test ~count:40 ~name:"switch-down folding identity" prop_fold_switching_identity;
          mk_test ~count:25 ~name:"OPT monotone in fleet size" prop_opt_monotone_in_fleet;
          mk_test ~count:30 ~name:"simulator volume conservation" prop_sim_conservation
        ] );
      ( "extensions",
        [ mk_test ~count:25 ~name:"explicit graph = transform DP" prop_graph_paper_equals_dp;
          mk_test ~count:25 ~name:"witness X' invariant and cost chain" prop_witness_invariant;
          mk_test ~count:30 ~name:"blocks partition by special slots" prop_blocks_partition;
          mk_test ~count:30 ~name:"fractional refinement preserves g" prop_fractional_refine_preserves_g;
          mk_test ~count:100 ~name:"ramp across random grids" prop_ramp_across_random_grids;
          mk_test ~count:100 ~name:"sexp print/parse roundtrip" prop_sexp_roundtrip;
          mk_test ~count:50 ~name:"csv write/read roundtrip" prop_csv_roundtrip
        ] );
      ( "online",
        [ mk_test ~count:25 ~name:"Theorem 8: A within 2d+1" prop_alg_a_theorem8;
          mk_test ~count:25 ~name:"Corollary 9: A within 2d (load-independent)"
            prop_alg_a_corollary9;
          mk_test ~count:25 ~name:"A dominates optimal prefixes" prop_alg_a_dominance;
          mk_test ~count:20 ~name:"Theorem 13: B within 2d+1+c(I)" prop_alg_b_theorem13;
          mk_test ~count:15 ~name:"Theorem 15: C within 2d+1+eps" prop_alg_c_theorem15;
          mk_test ~count:25 ~name:"optimal prefix cost is monotone" prop_prefix_cost_monotone;
          mk_test ~count:500 ~name:"prefix-opt plane = memo fill + ramp"
            prop_prefix_opt_matches_memo_rebuild;
          mk_test ~count:20 ~name:"baselines feasible" prop_baselines_feasible;
          mk_test ~count:20 ~name:"OPT lower-bounds all policies"
            prop_opt_lower_bounds_everything
        ] )
    ]

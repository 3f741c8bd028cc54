(* Unit tests for the model layer: server types, instances, configs,
   schedules, and the operating/switching/total cost functions. *)

let checkb = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))
let checki = Alcotest.(check int)

let st = Model.Server_type.make

let two_type_instance ?avail ?(horizon = 4) ?(load = None) () =
  let types =
    [| st ~name:"small" ~count:3 ~switching_cost:2. ~cap:1. ();
       st ~name:"big" ~count:2 ~switching_cost:5. ~cap:3. () |]
  in
  let fns =
    [| Convex.Fn.power ~idle:0.5 ~coef:1. ~expo:2.;
       Convex.Fn.power ~idle:1. ~coef:0.5 ~expo:2. |]
  in
  let load = match load with Some l -> l | None -> Array.make horizon 2. in
  Model.Instance.make_static ?avail ~types ~load ~fns ()

(* --- Server_type --- *)

let test_server_type_validation () =
  checkb "negative count" true
    (try ignore (st ~count:(-1) ~switching_cost:1. ~cap:1. ()); false
     with Invalid_argument _ -> true);
  checkb "negative beta" true
    (try ignore (st ~count:1 ~switching_cost:(-1.) ~cap:1. ()); false
     with Invalid_argument _ -> true);
  checkb "zero cap" true
    (try ignore (st ~count:1 ~switching_cost:1. ~cap:0. ()); false
     with Invalid_argument _ -> true)

let test_server_type_with_count () =
  let t = st ~count:3 ~switching_cost:1. ~cap:1. () in
  checki "updated" 7 (Model.Server_type.with_count t 7).Model.Server_type.count;
  checkb "negative rejected" true
    (try ignore (Model.Server_type.with_count t (-1)); false
     with Invalid_argument _ -> true)

(* --- Instance --- *)

let test_instance_basics () =
  let inst = two_type_instance () in
  checki "horizon" 4 (Model.Instance.horizon inst);
  checki "types" 2 (Model.Instance.num_types inst);
  checkb "time independent" true inst.Model.Instance.time_independent;
  checkb "not size varying" false inst.Model.Instance.size_varying;
  checkf 1e-12 "idle cost type 0" 0.5 (Model.Instance.idle_cost inst ~time:2 ~typ:0);
  checkf 1e-12 "capacity" 9. (Model.Instance.capacity_at inst ~time:0);
  checkb "feasible" true (Model.Instance.feasible_load inst);
  Alcotest.(check (array int)) "counts" [| 3; 2 |] (Model.Instance.counts inst)

let test_instance_prefix () =
  let inst = two_type_instance ~horizon:5 () in
  let p = Model.Instance.prefix inst 2 in
  checki "prefix horizon" 2 (Model.Instance.horizon p);
  checkb "bad prefix" true
    (try ignore (Model.Instance.prefix inst 0); false with Invalid_argument _ -> true);
  checkb "too long" true
    (try ignore (Model.Instance.prefix inst 6); false with Invalid_argument _ -> true)

let test_instance_window () =
  let load = [| 1.; 2.; 3.; 4.; 5. |] in
  let inst = two_type_instance ~horizon:5 ~load:(Some load) () in
  let w = Model.Instance.window inst ~start:2 ~len:2 in
  checki "window horizon" 2 (Model.Instance.horizon w);
  checkf 0. "window load" 3. w.Model.Instance.load.(0);
  checkf 0. "window load shifts" 4. w.Model.Instance.load.(1)

let test_instance_negative_load_rejected () =
  checkb "rejected" true
    (try ignore (two_type_instance ~load:(Some [| 1.; -1.; 0.; 0. |]) ()); false
     with Invalid_argument _ -> true)

let test_instance_avail () =
  let avail ~time ~typ = if typ = 0 && time = 1 then 1 else if typ = 0 then 3 else 2 in
  let inst = two_type_instance ~avail () in
  checkb "size varying" true inst.Model.Instance.size_varying;
  checki "reduced slot" 1 (inst.Model.Instance.avail ~time:1 ~typ:0);
  checkf 1e-12 "capacity honours avail" 7. (Model.Instance.capacity_at inst ~time:1)

let test_instance_avail_above_count_rejected () =
  let avail ~time:_ ~typ:_ = 10 in
  checkb "rejected" true
    (try ignore (two_type_instance ~avail ()); false with Invalid_argument _ -> true)

let test_instance_infeasible_load_detected () =
  let inst = two_type_instance ~load:(Some [| 2.; 100.; 2.; 2. |]) () in
  checkb "detected" false (Model.Instance.feasible_load inst)

let test_scale_slot () =
  let inst = two_type_instance () in
  let fns = Model.Instance.scale_slot inst ~time:0 ~parts:4 in
  checkf 1e-12 "idle quartered" 0.125 (Convex.Fn.eval fns.(0) 0.)

(* --- Config --- *)

let test_config_switching_cost () =
  let types = (two_type_instance ()).Model.Instance.types in
  checkf 1e-12 "pure power-up" (2. *. 2.)
    (Model.Config.switching_cost types ~from_:[| 0; 0 |] ~to_:[| 2; 0 |]);
  checkf 1e-12 "power-down free"
    0. (Model.Config.switching_cost types ~from_:[| 2; 1 |] ~to_:[| 0; 0 |]);
  checkf 1e-12 "mixed" 5.
    (Model.Config.switching_cost types ~from_:[| 2; 0 |] ~to_:[| 1; 1 |])

let test_config_capacity () =
  let types = (two_type_instance ()).Model.Instance.types in
  checkf 1e-12 "capacity" 5. (Model.Config.capacity types [| 2; 1 |])

let test_config_order_helpers () =
  checkb "dominates" true (Model.Config.dominates [| 2; 1 |] [| 1; 1 |]);
  checkb "not dominates" false (Model.Config.dominates [| 2; 0 |] [| 1; 1 |]);
  checkb "within" true (Model.Config.within [| 2; 1 |] [| 3; 2 |]);
  checkb "not within" false (Model.Config.within [| 4; 1 |] [| 3; 2 |]);
  checkb "lexicographic" true (Model.Config.compare [| 0; 9 |] [| 1; 0 |] < 0);
  Alcotest.(check string) "to_string" "(2,1)" (Model.Config.to_string [| 2; 1 |])

(* --- Schedule --- *)

let test_schedule_feasibility () =
  let inst = two_type_instance () in
  let ok = Model.Schedule.of_lists [ [ 2; 0 ]; [ 2; 0 ]; [ 0; 1 ]; [ 2; 0 ] ] in
  checkb "feasible" true (Model.Schedule.feasible inst ok);
  let short = Model.Schedule.of_lists [ [ 1; 0 ]; [ 2; 0 ]; [ 0; 1 ]; [ 2; 0 ] ] in
  (* Slot 0 has capacity 1 < load 2. *)
  checkb "under capacity" false (Model.Schedule.feasible inst short);
  (match Model.Schedule.check inst short with
  | [ Model.Schedule.Under_capacity { time = 0; _ } ] -> ()
  | _ -> Alcotest.fail "expected one capacity violation at slot 0");
  let over = Model.Schedule.of_lists [ [ 4; 0 ]; [ 2; 0 ]; [ 0; 1 ]; [ 2; 0 ] ] in
  (match Model.Schedule.check inst over with
  | [ Model.Schedule.Bad_count { time = 0; typ = 0; value = 4; avail = 3 } ] -> ()
  | _ -> Alcotest.fail "expected one count violation")

let test_schedule_column () =
  let s = Model.Schedule.of_lists [ [ 1; 0 ]; [ 2; 1 ]; [ 0; 2 ] ] in
  Alcotest.(check (array int)) "column 0" [| 1; 2; 0 |] (Model.Schedule.column s ~typ:0);
  Alcotest.(check (array int)) "column 1" [| 0; 1; 2 |] (Model.Schedule.column s ~typ:1)

let test_schedule_make_copies () =
  let row = [| 1; 0 |] in
  let s = Model.Schedule.make [| row; row |] in
  row.(0) <- 99;
  checki "deep copy" 1 s.(0).(0)

(* --- Cost --- *)

let test_operating_zero_load () =
  let inst = two_type_instance ~load:(Some [| 0.; 0.; 0.; 0. |]) () in
  (* Only idle costs: 2 * 0.5 + 1 * 1.0 = 2. *)
  checkf 1e-9 "idle only" 2. (Model.Cost.operating inst ~time:0 [| 2; 1 |]);
  checkf 1e-9 "nothing active" 0. (Model.Cost.operating inst ~time:0 [| 0; 0 |])

let test_operating_infeasible () =
  let inst = two_type_instance ~load:(Some [| 5.; 2.; 2.; 2. |]) () in
  checkb "too small" true (Model.Cost.operating inst ~time:0 [| 2; 0 |] = infinity);
  checkb "zero config with load" true (Model.Cost.operating inst ~time:0 [| 0; 0 |] = infinity)

let test_operating_homogeneous_closed_form () =
  (* d = 1: g(x) = x f(lambda / x). *)
  let types = [| st ~count:5 ~switching_cost:1. ~cap:2. () |] in
  let fns = [| Convex.Fn.power ~idle:0.3 ~coef:1. ~expo:2. |] in
  let inst = Model.Instance.make_static ~types ~load:[| 3. |] ~fns () in
  let expected x =
    let xf = float_of_int x in
    xf *. (0.3 +. ((3. /. xf) ** 2.))
  in
  checkf 1e-9 "x=2" (expected 2) (Model.Cost.operating inst ~time:0 [| 2 |]);
  checkf 1e-9 "x=3" (expected 3) (Model.Cost.operating inst ~time:0 [| 3 |])

let test_operating_matches_bruteforce_grid () =
  (* d = 2 dispatch vs a fine grid search over the split. *)
  let inst = two_type_instance ~load:(Some [| 2.5; 2.; 2.; 2. |]) () in
  let x = [| 2; 1 |] in
  let g = Model.Cost.operating inst ~time:0 x in
  let lambda = 2.5 in
  let f0 = inst.Model.Instance.cost ~time:0 ~typ:0 in
  let f1 = inst.Model.Instance.cost ~time:0 ~typ:1 in
  let best = ref infinity in
  let n = 4000 in
  for i = 0 to n do
    let z0 = float_of_int i /. float_of_int n in
    let z1 = 1. -. z0 in
    if lambda *. z0 <= 2. *. 1. +. 1e-9 && lambda *. z1 <= 1. *. 3. +. 1e-9 then begin
      let c =
        (2. *. Convex.Fn.eval f0 (lambda *. z0 /. 2.))
        +. (1. *. Convex.Fn.eval f1 (lambda *. z1 /. 1.))
      in
      if c < !best then best := c
    end
  done;
  checkb "dispatch optimal vs grid" true (Float.abs (g -. !best) < 1e-4)

let test_operating_load_independent_fast_path () =
  let types =
    [| st ~count:2 ~switching_cost:1. ~cap:1. (); st ~count:2 ~switching_cost:1. ~cap:1. () |]
  in
  let fns = [| Convex.Fn.const 0.7; Convex.Fn.const 1.1 |] in
  let inst = Model.Instance.make_static ~types ~load:[| 2. |] ~fns () in
  checkf 1e-9 "sum of constants" ((2. *. 0.7) +. (1. *. 1.1))
    (Model.Cost.operating inst ~time:0 [| 2; 1 |])

let test_operating_split_sums_to_one () =
  let inst = two_type_instance ~load:(Some [| 2.5; 2.; 2.; 2. |]) () in
  match Model.Cost.operating_split inst ~time:0 [| 2; 1 |] with
  | None -> Alcotest.fail "feasible"
  | Some (split, _) ->
      let s = Array.fold_left ( +. ) 0. split in
      checkb "sums to 1" true (Float.abs (s -. 1.) < 1e-6)

let test_load_dependent_nonnegative () =
  let inst = two_type_instance ~load:(Some [| 2.5; 2.; 2.; 2. |]) () in
  for typ = 0 to 1 do
    let l = Model.Cost.load_dependent inst ~time:0 [| 2; 1 |] ~typ in
    checkb "non-negative" true (l >= 0.)
  done;
  checkf 0. "inactive type contributes zero" 0.
    (Model.Cost.load_dependent inst ~time:0 [| 3; 0 |] ~typ:1)

let test_schedule_cost_decomposition () =
  let inst = two_type_instance () in
  let s = Model.Schedule.of_lists [ [ 2; 0 ]; [ 0; 1 ]; [ 0; 1 ]; [ 2; 0 ] ] in
  let total = Model.Cost.schedule inst s in
  let op = Model.Cost.schedule_operating inst s in
  let sw = Model.Cost.schedule_switching inst s in
  checkb "decomposition" true (Float.abs (total -. (op +. sw)) < 1e-9);
  (* Switching: 2 small up at t0 (4), 1 big at t1 (5), 2 small at t3 (4). *)
  checkf 1e-9 "switching" 13. sw

let test_schedule_cost_initial_powerup_counted () =
  let types = [| st ~count:1 ~switching_cost:7. ~cap:10. () |] in
  let fns = [| Convex.Fn.const 1. |] in
  let inst = Model.Instance.make_static ~types ~load:[| 1. |] ~fns () in
  checkf 1e-9 "beta + one slot idle" 8.
    (Model.Cost.schedule inst (Model.Schedule.of_lists [ [ 1 ] ]))

(* The rank-table memo: [layer_table] + [operating_rank] must return
   [operating] for every state of a dense grid, and a second read must
   be a rank-table hit returning the same value. *)
let test_cost_cache_consistent () =
  let inst = two_type_instance ~load:(Some [| 2.5; 1.; 0.; 2. |]) () in
  let cache = Model.Cost.make_cache inst in
  let grid = Offline.Grid.dense (Model.Instance.counts inst) in
  let n = Offline.Grid.size grid in
  let counter name = Obs.Counter.value (Option.get (Obs.Counter.find name)) in
  for time = 0 to 3 do
    ignore (Model.Cost.layer_table cache ~time n : float array);
    Offline.Grid.iter grid (fun rank x ->
        checkf 0. "cache = direct"
          (Model.Cost.operating inst ~time x)
          (Model.Cost.operating_rank cache ~time ~rank x))
  done;
  let x = [| 2; 1 |] in
  let rank = Option.get (Offline.Grid.index_of grid x) in
  let misses = counter "cost.rank_misses" and hits = counter "cost.rank_hits" in
  checkf 0. "memo stable"
    (Model.Cost.operating inst ~time:0 x)
    (Model.Cost.operating_rank cache ~time:0 ~rank x);
  checki "second read is a hit" (hits + 1) (counter "cost.rank_hits");
  checki "no recomputation" misses (counter "cost.rank_misses")

let test_operating_volume () =
  let inst = two_type_instance ~load:(Some [| 2.5; 2.; 2.; 2. |]) () in
  let x = [| 2; 1 |] in
  checkf 1e-9 "volume = slot load agrees" (Model.Cost.operating inst ~time:0 x)
    (Model.Cost.operating_volume inst ~time:0 ~volume:2.5 x);
  checkf 1e-9 "zero volume = idle sum" 2.
    (Model.Cost.operating_volume inst ~time:0 ~volume:0. x);
  checkb "beyond capacity infeasible" true
    (Model.Cost.operating_volume inst ~time:0 ~volume:100. x = infinity);
  checkb "negative volume raises" true
    (try ignore (Model.Cost.operating_volume inst ~time:0 ~volume:(-1.) x); false
     with Invalid_argument _ -> true)

let test_window_validation () =
  let inst = two_type_instance ~horizon:5 () in
  List.iter
    (fun (start, len) ->
      checkb
        (Printf.sprintf "window %d %d rejected" start len)
        true
        (try ignore (Model.Instance.window inst ~start ~len); false
         with Invalid_argument _ -> true))
    [ (-1, 2); (0, 0); (4, 2); (0, 6) ]

let test_single_slot_instance () =
  let inst = two_type_instance ~horizon:1 ~load:(Some [| 2. |]) () in
  let r = Offline.Dp.solve_optimal inst in
  checkb "solves" true (Float.is_finite r.Offline.Dp.cost);
  let a = Online.Alg_a.run inst in
  checkb "online feasible" true (Model.Schedule.feasible inst a.Online.Alg_a.schedule)

let test_transition_cost_two_sided () =
  let types =
    [| st ~count:3 ~switching_cost:2. ~switch_down:0.5 ~cap:1. ();
       st ~count:2 ~switching_cost:5. ~cap:3. () |]
  in
  (* Up 2 of type 0 (2*2), down 1 of type 1 (free: no down cost). *)
  checkf 1e-12 "mixed" 4.
    (Model.Config.transition_cost types ~from_:[| 0; 1 |] ~to_:[| 2; 0 |]);
  (* Down 2 of type 0 at 0.5 each. *)
  checkf 1e-12 "downs" 1.
    (Model.Config.transition_cost types ~from_:[| 2; 0 |] ~to_:[| 0; 0 |])

let test_fold_switching_identity () =
  (* The paper's folding: every schedule costs the same under the folded
     instance (power-downs inactive at the boundaries). *)
  let rng = Util.Prng.create 61 in
  for _ = 1 to 20 do
    let types =
      [| st ~count:2 ~switching_cost:(Util.Prng.float rng 3.)
           ~switch_down:(Util.Prng.float rng 3.) ~cap:2. ();
         st ~count:2 ~switching_cost:(Util.Prng.float rng 3.)
           ~switch_down:(Util.Prng.float rng 3.) ~cap:3. () |]
    in
    let fns =
      [| Convex.Fn.power ~idle:0.3 ~coef:0.5 ~expo:2.; Convex.Fn.const 0.7 |]
    in
    let horizon = 5 in
    let load = Array.init horizon (fun _ -> Util.Prng.float rng 4.) in
    let inst = Model.Instance.make_static ~types ~load ~fns () in
    let folded = Model.Instance.fold_switching inst in
    checkb "folded has no down costs" false (Model.Instance.has_down_costs folded);
    (* A random feasible schedule. *)
    let schedule =
      Array.init horizon (fun _ -> [| Util.Prng.int rng 3; 1 + Util.Prng.int rng 2 |])
    in
    checkb "identity" true
      (Util.Float_cmp.close ~eps:1e-9
         (Model.Cost.schedule inst schedule)
         (Model.Cost.schedule folded schedule))
  done

let test_down_costs_solvers_consistent () =
  (* Solving an instance with down costs: the returned cost (computed on
     the folded instance) equals the two-sided cost of the schedule. *)
  let types =
    [| st ~count:3 ~switching_cost:1. ~switch_down:2. ~cap:1. ();
       st ~count:2 ~switching_cost:2. ~switch_down:1. ~cap:3. () |]
  in
  let fns =
    [| Convex.Fn.power ~idle:0.5 ~coef:1. ~expo:2.;
       Convex.Fn.power ~idle:1. ~coef:0.5 ~expo:2. |]
  in
  let load = [| 2.; 4.; 1.; 0.; 3.; 2. |] in
  let inst = Model.Instance.make_static ~types ~load ~fns () in
  let r = Offline.Dp.solve_optimal inst in
  checkb "reported = two-sided cost" true
    (Util.Float_cmp.close ~eps:1e-6 r.Offline.Dp.cost
       (Model.Cost.schedule inst r.Offline.Dp.schedule));
  (* Online algorithm A also works through the folded prefix engine. *)
  let a = Online.Alg_a.run inst in
  checkb "A feasible" true (Model.Schedule.feasible inst a.Online.Alg_a.schedule);
  checkb "A within 2d+1 (two-sided accounting)" true
    (Model.Cost.schedule inst a.Online.Alg_a.schedule <= (5. *. r.Offline.Dp.cost) +. 1e-6)

let test_operating_by_type_sums () =
  let inst = two_type_instance ~load:(Some [| 2.5; 2.; 2.; 2. |]) () in
  let x = [| 2; 1 |] in
  (match Model.Cost.operating_by_type inst ~time:0 ~volume:2.5 x with
  | None -> Alcotest.fail "feasible"
  | Some parts ->
      let sum = Array.fold_left ( +. ) 0. parts in
      checkb "parts sum to g" true
        (Util.Float_cmp.close ~eps:1e-6 sum
           (Model.Cost.operating_volume inst ~time:0 ~volume:2.5 x));
      Array.iter (fun e -> checkb "non-negative" true (e >= 0.)) parts);
  checkb "infeasible is None" true
    (Model.Cost.operating_by_type inst ~time:0 ~volume:100. x = None)

let test_jensen_lemma2 () =
  (* Lemma 2: even spreading beats any uneven split across x servers. *)
  let f = Convex.Fn.power ~idle:0.2 ~coef:1. ~expo:2. in
  let lambda_z = 1.7 in
  let x = 3 in
  let even = float_of_int x *. Convex.Fn.eval f (lambda_z /. float_of_int x) in
  let uneven a b c =
    Convex.Fn.eval f (lambda_z *. a) +. Convex.Fn.eval f (lambda_z *. b)
    +. Convex.Fn.eval f (lambda_z *. c)
  in
  checkb "even <= (0.5, 0.3, 0.2)" true (even <= uneven 0.5 0.3 0.2 +. 1e-9);
  checkb "even <= (1, 0, 0)" true (even <= uneven 1. 0. 0. +. 1e-9);
  checkb "even = even split" true
    (Float.abs (even -. uneven (1. /. 3.) (1. /. 3.) (1. /. 3.)) < 1e-9)

let () =
  Alcotest.run "model"
    [ ( "server_type",
        [ Alcotest.test_case "validation" `Quick test_server_type_validation;
          Alcotest.test_case "with_count" `Quick test_server_type_with_count
        ] );
      ( "instance",
        [ Alcotest.test_case "basics" `Quick test_instance_basics;
          Alcotest.test_case "prefix" `Quick test_instance_prefix;
          Alcotest.test_case "window" `Quick test_instance_window;
          Alcotest.test_case "negative load rejected" `Quick test_instance_negative_load_rejected;
          Alcotest.test_case "availability" `Quick test_instance_avail;
          Alcotest.test_case "availability above count rejected" `Quick
            test_instance_avail_above_count_rejected;
          Alcotest.test_case "infeasible load detected" `Quick
            test_instance_infeasible_load_detected;
          Alcotest.test_case "scale_slot" `Quick test_scale_slot
        ] );
      ( "config",
        [ Alcotest.test_case "switching cost" `Quick test_config_switching_cost;
          Alcotest.test_case "capacity" `Quick test_config_capacity;
          Alcotest.test_case "order helpers" `Quick test_config_order_helpers
        ] );
      ( "schedule",
        [ Alcotest.test_case "feasibility" `Quick test_schedule_feasibility;
          Alcotest.test_case "column extraction" `Quick test_schedule_column;
          Alcotest.test_case "make deep-copies" `Quick test_schedule_make_copies
        ] );
      ( "cost",
        [ Alcotest.test_case "zero load" `Quick test_operating_zero_load;
          Alcotest.test_case "infeasible configs" `Quick test_operating_infeasible;
          Alcotest.test_case "homogeneous closed form" `Quick
            test_operating_homogeneous_closed_form;
          Alcotest.test_case "dispatch vs grid search" `Quick
            test_operating_matches_bruteforce_grid;
          Alcotest.test_case "load-independent fast path" `Quick
            test_operating_load_independent_fast_path;
          Alcotest.test_case "split sums to one" `Quick test_operating_split_sums_to_one;
          Alcotest.test_case "load-dependent part non-negative" `Quick
            test_load_dependent_nonnegative;
          Alcotest.test_case "cost decomposition" `Quick test_schedule_cost_decomposition;
          Alcotest.test_case "initial power-up counted" `Quick
            test_schedule_cost_initial_powerup_counted;
          Alcotest.test_case "cache consistency" `Quick test_cost_cache_consistent;
          Alcotest.test_case "two-sided transition cost" `Quick
            test_transition_cost_two_sided;
          Alcotest.test_case "folding identity (paper remark)" `Quick
            test_fold_switching_identity;
          Alcotest.test_case "solvers handle down costs" `Quick
            test_down_costs_solvers_consistent;
          Alcotest.test_case "operating_volume" `Quick test_operating_volume;
          Alcotest.test_case "operating_by_type sums" `Quick test_operating_by_type_sums;
          Alcotest.test_case "window validation" `Quick test_window_validation;
          Alcotest.test_case "single-slot instance" `Quick test_single_slot_instance;
          Alcotest.test_case "Lemma 2 (Jensen)" `Quick test_jensen_lemma2
        ] )
    ]

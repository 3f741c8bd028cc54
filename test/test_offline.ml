(* Unit tests for the offline layer: state grids, ramp transforms, the
   shortest-path DP (Section 4.1), the (1+eps)-approximation (Section 4.2,
   Theorem 16), and time-varying sizes (Section 4.3, Theorem 22). *)

let checkb = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))
let checki = Alcotest.(check int)

let st = Model.Server_type.make

(* --- Grid --- *)

let test_grid_dense () =
  let g = Offline.Grid.dense [| 2; 1 |] in
  checki "size" 6 (Offline.Grid.size g);
  checki "dim" 2 (Offline.Grid.dim g);
  Alcotest.(check (array int)) "axis 0" [| 0; 1; 2 |] (Offline.Grid.axis_values g 0);
  Alcotest.(check (array int)) "axis 1" [| 0; 1 |] (Offline.Grid.axis_values g 1)

let test_grid_indexing_roundtrip () =
  let g = Offline.Grid.dense [| 3; 2; 1 |] in
  for idx = 0 to Offline.Grid.size g - 1 do
    let x = Offline.Grid.config_at g idx in
    match Offline.Grid.index_of g x with
    | Some idx' -> checki "roundtrip" idx idx'
    | None -> Alcotest.fail "config must be on-grid"
  done

let test_grid_iter_order_lexicographic () =
  let g = Offline.Grid.dense [| 1; 1 |] in
  let seen = ref [] in
  Offline.Grid.iter g (fun _ x -> seen := Model.Config.copy x :: !seen);
  Alcotest.(check (list (array int)))
    "lexicographic"
    [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |] ]
    (List.rev !seen)

let test_grid_power_axis () =
  (* gamma = 2, m = 10: the paper's Figure 5 grid {0,1,2,4,8,10}. *)
  let g = Offline.Grid.power ~gamma:2. [| 10 |] in
  Alcotest.(check (array int)) "M^2 of 10" [| 0; 1; 2; 4; 8; 10 |]
    (Offline.Grid.axis_values g 0)

let test_grid_power_ratio_bound () =
  (* Consecutive non-zero values differ by a factor of at most gamma —
     except where they are consecutive integers (no integer can lie in
     between, the best integrality allows). *)
  List.iter
    (fun gamma ->
      let g = Offline.Grid.power ~gamma [| 1000 |] in
      let axis = Offline.Grid.axis_values g 0 in
      for i = 1 to Array.length axis - 2 do
        let ratio = float_of_int axis.(i + 1) /. float_of_int axis.(i) in
        checkb
          (Printf.sprintf "gap ok at %d (gamma %f)" axis.(i) gamma)
          true
          (ratio <= gamma +. 1e-9 || axis.(i + 1) = axis.(i) + 1)
      done)
    [ 1.05; 1.25; 1.5; 2.; 3. ]

let test_grid_power_contains_extremes () =
  let g = Offline.Grid.power ~gamma:1.5 [| 37 |] in
  let axis = Offline.Grid.axis_values g 0 in
  checki "starts at 0" 0 axis.(0);
  checki "ends at m" 37 axis.(Array.length axis - 1);
  checkb "contains 1" true (Array.exists (( = ) 1) axis)

let test_grid_power_zero_count () =
  let g = Offline.Grid.power ~gamma:2. [| 0 |] in
  Alcotest.(check (array int)) "only 0" [| 0 |] (Offline.Grid.axis_values g 0)

let test_grid_round_up_down () =
  let g = Offline.Grid.power ~gamma:2. [| 10 |] in
  checkb "round_up 3 -> 4" true (Offline.Grid.round_up g 0 3 = Some 4);
  checkb "round_up 10 -> 10" true (Offline.Grid.round_up g 0 10 = Some 10);
  checkb "round_up 11 -> None" true (Offline.Grid.round_up g 0 11 = None);
  checki "round_down 3 -> 2" 2 (Offline.Grid.round_down g 0 3);
  checki "round_down 0 -> 0" 0 (Offline.Grid.round_down g 0 0);
  checki "round_down 100 -> 10" 10 (Offline.Grid.round_down g 0 100);
  checki "max_value" 10 (Offline.Grid.max_value g 0)

let test_grid_equal () =
  let a = Offline.Grid.dense [| 2; 2 |] and b = Offline.Grid.dense [| 2; 2 |] in
  checkb "equal" true (Offline.Grid.equal a b);
  checkb "not equal" false (Offline.Grid.equal a (Offline.Grid.dense [| 2; 3 |]))

let test_grid_validation () =
  checkb "missing zero" true
    (try ignore (Offline.Grid.make [| [| 1; 2 |] |]); false with Invalid_argument _ -> true);
  checkb "not increasing" true
    (try ignore (Offline.Grid.make [| [| 0; 2; 2 |] |]); false with Invalid_argument _ -> true);
  (* The ramp scans' sorted-axis precondition rests on this guard alone. *)
  checkb "decreasing" true
    (try ignore (Offline.Grid.make [| [| 0; 2; 1 |] |]); false with Invalid_argument _ -> true);
  checkb "gamma <= 1" true
    (try ignore (Offline.Grid.power ~gamma:1. [| 5 |]); false with Invalid_argument _ -> true)

(* --- Transform --- *)

let plane_of costs =
  let p = Offline.Plane.create (Array.length costs) in
  Offline.Plane.of_array costs p ~off:0;
  p

(* The bare in-place ramp: a zero [ops] row adds nothing. *)
let ramp_grid ~grid ~betas costs =
  let n = Array.length costs in
  let p = plane_of costs in
  Offline.Transform.ramp_grid_plane ~ops:(Array.make n 0.) ~grid ~betas p ~off:0;
  Offline.Plane.to_array p ~off:0 ~len:n

(* Scratch planes big enough for every intermediate shape. *)
let scratch_for src_grid dst_grid =
  let cells = ref 1 in
  for j = 0 to Offline.Grid.dim src_grid - 1 do
    cells :=
      !cells * max (Offline.Grid.axis_length src_grid j) (Offline.Grid.axis_length dst_grid j)
  done;
  (Offline.Plane.create !cells, Offline.Plane.create !cells)

let ramp_across ~src_grid ~dst_grid ~betas src =
  let n = Offline.Grid.size dst_grid in
  let dst = Offline.Plane.create n in
  Offline.Transform.ramp_across_plane ~ops:(Array.make n 0.) ~src_grid ~dst_grid ~betas
    ~src:(plane_of src) ~soff:0 ~tmp:(scratch_for src_grid dst_grid) dst ~doff:0;
  Offline.Plane.to_array dst ~off:0 ~len:n

let axis_grid values = Offline.Grid.make [| values |]

let brute_ramp ~beta ~values ~costs i =
  let best = ref infinity in
  Array.iteri
    (fun y cy ->
      let up = float_of_int (max 0 (values.(i) - values.(y))) in
      let c = cy +. (beta *. up) in
      if c < !best then best := c)
    costs;
  !best

let strictly_increasing_axis rng n =
  let vals = Array.make n 0 in
  for i = 1 to n - 1 do
    vals.(i) <- vals.(i - 1) + 1 + Util.Prng.int rng 3
  done;
  vals

let test_ramp_line_matches_bruteforce () =
  let rng = Util.Prng.create 3 in
  for _ = 1 to 50 do
    let n = 1 + Util.Prng.int rng 8 in
    let values = strictly_increasing_axis rng n in
    let costs = Array.init n (fun _ -> Util.Prng.float rng 10.) in
    let beta = Util.Prng.float rng 3. in
    let expected = Array.init n (brute_ramp ~beta ~values ~costs) in
    let got = ramp_grid ~grid:(axis_grid values) ~betas:[| beta |] costs in
    Array.iteri (fun i e -> checkf 1e-9 "ramp matches" e got.(i)) expected
  done

let test_ramp_line_infinity () =
  let values = [| 0; 1; 2 |] in
  let costs =
    ramp_grid ~grid:(axis_grid values) ~betas:[| 2. |] [| infinity; 5.; infinity |]
  in
  checkf 0. "free descent" 5. costs.(0);
  checkf 0. "unchanged" 5. costs.(1);
  checkf 0. "climb" 7. costs.(2)

let test_ramp_between_matches_bruteforce () =
  let rng = Util.Prng.create 4 in
  for _ = 1 to 50 do
    let ns = 1 + Util.Prng.int rng 6 and nd = 1 + Util.Prng.int rng 6 in
    let src_values = strictly_increasing_axis rng ns in
    let dst_values = strictly_increasing_axis rng nd in
    let src = Array.init ns (fun _ -> Util.Prng.float rng 10.) in
    let beta = Util.Prng.float rng 3. in
    let got =
      ramp_across ~src_grid:(axis_grid src_values) ~dst_grid:(axis_grid dst_values)
        ~betas:[| beta |] src
    in
    Array.iteri
      (fun i vi ->
        let best = ref infinity in
        Array.iteri
          (fun y cy ->
            let up = float_of_int (max 0 (vi - src_values.(y))) in
            let c = cy +. (beta *. up) in
            if c < !best then best := c)
          src;
        checkf 1e-9 "ramp_between matches" !best got.(i))
      dst_values
  done

let test_ramp_grid_2d () =
  (* 2x2 grid, both betas 1; start from a single finite cell. *)
  let grid = Offline.Grid.dense [| 1; 1 |] in
  (* index 3 = (1,1). *)
  let flat = ramp_grid ~grid ~betas:[| 1.; 1. |] [| infinity; infinity; infinity; 0. |] in
  checkf 1e-12 "(1,1) stays" 0. flat.(3);
  checkf 1e-12 "(1,0): free down" 0. flat.(2);
  checkf 1e-12 "(0,1): free down" 0. flat.(1);
  checkf 1e-12 "(0,0): free down twice" 0. flat.(0)

let test_ramp_grid_up_costs () =
  let grid = Offline.Grid.dense [| 1; 1 |] in
  let flat = ramp_grid ~grid ~betas:[| 2.; 3. |] [| 0.; infinity; infinity; infinity |] in
  checkf 1e-12 "(0,0)" 0. flat.(0);
  checkf 1e-12 "(0,1)" 3. flat.(1);
  checkf 1e-12 "(1,0)" 2. flat.(2);
  checkf 1e-12 "(1,1)" 5. flat.(3)

let test_ramp_across_matches_dense () =
  (* When src and dst grids coincide, the across transform must equal
     the in-place one. *)
  let grid = Offline.Grid.dense [| 2; 2 |] in
  let rng = Util.Prng.create 5 in
  let flat = Array.init (Offline.Grid.size grid) (fun _ -> Util.Prng.float rng 10.) in
  let in_place = ramp_grid ~grid ~betas:[| 1.5; 0.5 |] flat in
  let across = ramp_across ~src_grid:grid ~dst_grid:grid ~betas:[| 1.5; 0.5 |] flat in
  Array.iteri (fun i e -> checkf 1e-9 "agree" e across.(i)) in_place

let test_ramp_across_mismatched () =
  (* src axis {0,1,2}, dst axis {0,2}: hand-checked. *)
  let out =
    ramp_across ~src_grid:(axis_grid [| 0; 1; 2 |]) ~dst_grid:(axis_grid [| 0; 2 |])
      ~betas:[| 2. |] [| 4.; 1.; 3. |]
  in
  (* dst 0: min(4, 1, 3) = 1 (free down). dst 2: min(4+4, 1+2, 3) = 3. *)
  checkf 1e-12 "dst 0" 1. out.(0);
  checkf 1e-12 "dst 2" 3. out.(1)

let test_ramp_across_segments_checked () =
  (* A segment that does not fit its plane is rejected before anything
     is written, on either side. *)
  let src_grid = axis_grid [| 0; 1; 2 |] and dst_grid = axis_grid [| 0; 2 |] in
  let across ~src ~soff dst ~doff =
    Offline.Transform.ramp_across_plane ~ops:[| 0.; 0. |] ~src_grid ~dst_grid ~betas:[| 2. |]
      ~src ~soff ~tmp:(scratch_for src_grid dst_grid) dst ~doff
  in
  let dst = plane_of [| 7.; 7. |] in
  let src_error = Invalid_argument "Transform.ramp_across_plane: src segment out of range" in
  Alcotest.check_raises "src shorter than src_grid" src_error (fun () ->
      across ~src:(plane_of [| 4.; 1. |]) ~soff:0 dst ~doff:0);
  Alcotest.check_raises "negative soff" src_error (fun () ->
      across ~src:(plane_of [| 4.; 1.; 3. |]) ~soff:(-1) dst ~doff:0);
  Alcotest.check_raises "dst past its plane"
    (Invalid_argument "Transform.ramp_across_plane: dst segment out of range") (fun () ->
      across ~src:(plane_of [| 4.; 1.; 3. |]) ~soff:0 dst ~doff:1);
  Alcotest.(check (array (float 0.)))
    "dst untouched" [| 7.; 7. |]
    (Offline.Plane.to_array dst ~off:0 ~len:2)

let bits a = Array.map Int64.bits_of_float a

(* A DP engine ramps without an [ops] row; a zero row adds +0 to every
   cell, so the two agree bit for bit, also on layers that are mostly
   +infinity (a canonical layer's shape), where each line's climb starts
   at its first finite cell. *)
let test_ramp_without_ops () =
  let rng = Util.Prng.create 23 in
  let sparse n =
    Array.init n (fun _ ->
        if Util.Prng.int rng 10 < 8 then infinity else Util.Prng.float rng 50.)
  in
  List.iter
    (fun axes ->
      let grid = Offline.Grid.make axes in
      let n = Offline.Grid.size grid in
      let betas = Array.map (fun _ -> 0.5 +. Util.Prng.float rng 3.) axes in
      for _ = 1 to 20 do
        let costs = sparse n in
        let with_row = ramp_grid ~grid ~betas costs in
        let p = plane_of costs in
        Offline.Transform.ramp_grid_plane ~grid ~betas p ~off:0;
        Alcotest.(check (array int64)) "within a grid" (bits with_row)
          (bits (Offline.Plane.to_array p ~off:0 ~len:n));
        let dst_grid = Offline.Grid.make (Array.map (fun a -> Array.sub a 0 2) axes) in
        let m = Offline.Grid.size dst_grid in
        let dst = Offline.Plane.create m in
        Offline.Transform.ramp_across_plane ~src_grid:grid ~dst_grid ~betas ~src:(plane_of costs)
          ~soff:0 ~tmp:(scratch_for grid dst_grid) dst ~doff:0;
        Alcotest.(check (array int64)) "across grids"
          (bits (ramp_across ~src_grid:grid ~dst_grid ~betas costs))
          (bits (Offline.Plane.to_array dst ~off:0 ~len:m))
      done)
    [ [| [| 0; 1; 3; 4; 7 |] |];
      [| [| 0; 1; 2; 5 |]; [| 0; 2; 3; 4; 6; 9 |] |];
      [| [| 0; 1; 2 |]; [| 0; 3; 4 |]; [| 0; 1; 2; 3; 5 |] |] ]

(* --- Layer store --- *)

(* Every layer comes back bit for bit: an all-+infinity line stores
   nothing, an all-finite line (with a negative zero and a subnormal)
   stores every cell, and a run keeps its interior +infinity, which the
   finite-cell view skips.  A large layer's runs cross the store's chunk
   boundaries. *)
let test_layer_store_round_trip () =
  let inf = infinity in
  let small =
    [| inf; inf; inf; inf;
       -0.; 4.9e-324; 3.25; 1e300;
       inf; 2.; inf; 5.;
       inf; 7.; 8.; inf |]
  in
  let other = [| 1.; inf; 6.; inf; inf; inf |] in
  let big = Array.init 30_000 (fun i -> if i mod 7 = 0 then inf else float_of_int i /. 3.) in
  let store = Offline.Layer_store.create () in
  let append layer ~line =
    Offline.Layer_store.append store (plane_of layer) ~size:(Array.length layer) ~line
  in
  checki "runs kept" 9 (append small ~line:4);
  checki "an interior +infinity is kept" 3 (append other ~line:3);
  (* Each 10,000-cell line loses its leading +infinity, the second line
     its trailing one too. *)
  checki "runs of the large layer" 29_998 (append big ~line:10_000);
  List.iteri
    (fun t layer ->
      let name = Printf.sprintf "layer %d" t in
      Alcotest.(check (array int64)) (name ^ " to_array") (bits layer)
        (bits (Offline.Layer_store.to_array store t));
      let size = Array.length layer in
      let cells = Array.make size (-1) and values = Array.make size nan in
      let m = Offline.Layer_store.finite store t cells values in
      let finite = List.filter (fun i -> layer.(i) < infinity) (List.init size Fun.id) in
      Alcotest.(check (list int)) (name ^ " finite ranks") finite
        (Array.to_list (Array.sub cells 0 m));
      Alcotest.(check (array int64)) (name ^ " finite values")
        (bits (Array.of_list (List.map (Array.get layer) finite)))
        (bits (Array.sub values 0 m)))
    [ small; other; big ];
  Alcotest.check_raises "no such layer" (Invalid_argument "Layer_store: no such layer")
    (fun () -> ignore (Offline.Layer_store.to_array store 3));
  Alcotest.check_raises "line must divide the size"
    (Invalid_argument "Layer_store.append: layer shape does not fit the plane") (fun () ->
      ignore (append small ~line:3))

(* --- DP vs brute force --- *)

let random_small_instance rng ~dynamic =
  let d = 1 + Util.Prng.int rng 2 in
  let horizon = 2 + Util.Prng.int rng 3 in
  if dynamic then Sim.Scenarios.random_dynamic ~rng ~d ~horizon ~max_count:2
  else Sim.Scenarios.random_static ~rng ~d ~horizon ~max_count:2

let test_dp_matches_bruteforce () =
  let rng = Util.Prng.create 17 in
  for _ = 1 to 30 do
    let inst = random_small_instance rng ~dynamic:false in
    let dp = Offline.Dp.solve_optimal inst in
    let bf = Offline.Brute_force.solve inst in
    checkb "costs agree" true
      (Util.Float_cmp.close ~eps:1e-6 dp.Offline.Dp.cost bf.Offline.Dp.cost)
  done

let test_dp_matches_bruteforce_dynamic () =
  let rng = Util.Prng.create 18 in
  for _ = 1 to 20 do
    let inst = random_small_instance rng ~dynamic:true in
    let dp = Offline.Dp.solve_optimal inst in
    let bf = Offline.Brute_force.solve inst in
    checkb "costs agree" true
      (Util.Float_cmp.close ~eps:1e-6 dp.Offline.Dp.cost bf.Offline.Dp.cost)
  done

let test_dp_cost_equals_schedule_cost () =
  let rng = Util.Prng.create 19 in
  for _ = 1 to 20 do
    let inst = random_small_instance rng ~dynamic:false in
    let dp = Offline.Dp.solve_optimal inst in
    checkb "reported = evaluated" true
      (Util.Float_cmp.close ~eps:1e-6 dp.Offline.Dp.cost
         (Model.Cost.schedule inst dp.Offline.Dp.schedule));
    checkb "feasible" true (Model.Schedule.feasible inst dp.Offline.Dp.schedule)
  done

let test_dp_figure4_instance () =
  (* The paper's Figure 4: d = 2, T = 2, m = (2, 1).  We build costs that
     make x_1 = (2,0), x_2 = (1,1) optimal and check the DP finds them. *)
  let types =
    [| st ~name:"t1" ~count:2 ~switching_cost:1. ~cap:1. ();
       st ~name:"t2" ~count:1 ~switching_cost:2. ~cap:2. () |]
  in
  let fns =
    Array.init 2 (fun time ->
        if time = 0 then
          [| Convex.Fn.affine ~intercept:0.2 ~slope:0.1;
             Convex.Fn.affine ~intercept:3. ~slope:1. |]
        else
          [| Convex.Fn.affine ~intercept:0.2 ~slope:2.;
             Convex.Fn.affine ~intercept:0.1 ~slope:0.05 |])
  in
  let inst =
    Model.Instance.make ~types ~load:[| 2.; 2. |]
      ~cost:(fun ~time ~typ -> fns.(time).(typ))
      ()
  in
  let dp = Offline.Dp.solve_optimal inst in
  let bf = Offline.Brute_force.solve inst in
  checkb "matches brute force" true
    (Util.Float_cmp.close ~eps:1e-6 dp.Offline.Dp.cost bf.Offline.Dp.cost);
  Alcotest.(check (array int)) "slot 0 config" [| 2; 0 |] dp.Offline.Dp.schedule.(0);
  checki "slot 1 uses type 2" 1 dp.Offline.Dp.schedule.(1).(1)

let test_dp_idle_bridging () =
  (* With a short gap and a high beta it is cheaper to idle through. *)
  let types = [| st ~count:1 ~switching_cost:10. ~cap:1. () |] in
  let fns = [| Convex.Fn.const 1. |] in
  let inst = Model.Instance.make_static ~types ~load:[| 1.; 0.; 1. |] ~fns () in
  let dp = Offline.Dp.solve_optimal inst in
  Alcotest.(check (list (array int)))
    "stays on through the gap"
    [ [| 1 |]; [| 1 |]; [| 1 |] ]
    (Array.to_list dp.Offline.Dp.schedule);
  checkf 1e-9 "cost" 13. dp.Offline.Dp.cost

let test_dp_powers_down_across_long_gap () =
  let types = [| st ~count:1 ~switching_cost:2. ~cap:1. () |] in
  let fns = [| Convex.Fn.const 1. |] in
  let load = [| 1.; 0.; 0.; 0.; 0.; 1. |] in
  let inst = Model.Instance.make_static ~types ~load ~fns () in
  let dp = Offline.Dp.solve_optimal inst in
  checki "off in the middle" 0 dp.Offline.Dp.schedule.(2).(0);
  (* Two activations: 2 * (beta + 1 slot idle-at-load) = 6. *)
  checkf 1e-9 "cost" 6. dp.Offline.Dp.cost

let test_dp_infeasible_raises () =
  let types = [| st ~count:1 ~switching_cost:1. ~cap:1. () |] in
  let fns = [| Convex.Fn.const 1. |] in
  let inst = Model.Instance.make_static ~types ~load:[| 5. |] ~fns () in
  checkb "raises" true
    (try ignore (Offline.Dp.solve_optimal inst); false with Invalid_argument _ -> true)

let test_dp_initial_state () =
  (* Starting with the server already on removes the power-up cost. *)
  let types = [| st ~count:1 ~switching_cost:10. ~cap:1. () |] in
  let fns = [| Convex.Fn.const 1. |] in
  let inst = Model.Instance.make_static ~types ~load:[| 1. |] ~fns () in
  let cold = Offline.Dp.solve inst in
  let warm = Offline.Dp.solve ~initial:[| 1 |] inst in
  checkf 1e-9 "cold pays beta" 11. cold.Offline.Dp.cost;
  checkf 1e-9 "warm does not" 1. warm.Offline.Dp.cost

(* --- Golden operating-cost rows --- *)

(* 64-bit FNV-1a over the little-endian bytes of each float's bit
   pattern: one number that moves if any bit of any row does. *)
let fnv_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_float h x =
  let bits = Int64.bits_of_float x in
  let h = ref h in
  for k = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical bits (8 * k)) 0xffL in
    h := Int64.mul (Int64.logxor !h byte) fnv_prime
  done;
  !h

let golden_counters =
  [ "dispatch.calls"; "dispatch.analytic_solves"; "dispatch.newton_evals"; "cost.rank_misses" ]

(* Per named scenario: the digest of every [Dp.fill_row] row over its
   default horizon on the dense grids, and what the fill adds to
   [golden_counters].  Recorded with the fill as it stood before its
   per-cell boxing, closures and counter bumps were removed, so any
   change to a row bit or to the work done shows here. *)
let golden_rows =
  [ ("cpu-gpu", 0xd806a0c7cb6947f4L, [ 1209; 978; 5412; 1728 ]);
    ("homogeneous", 0x27dcf94576191fd1L, [ 0; 0; 0; 440 ]);
    ("three-tier", 0x29045fc95d5fd697L, [ 6811; 6555; 39368; 8820 ]);
    ("large-fleet", 0x9da25336fcc10c68L, [ 56848; 55595; 228225; 80032 ]);
    ("time-varying", 0x82ae6a3f7459eb74L, [ 793; 646; 3256; 1260 ]);
    ("spot-market", 0xcbcc6d9fc4247b8cL, [ 0; 0; 0; 1260 ]);
    ("maintenance", 0xd3282fb5eb61a544L, [ 523; 396; 948; 710 ]) ]

let counter_value name =
  match Obs.Counter.find name with Some c -> Obs.Counter.value c | None -> 0

let test_fill_rows_golden () =
  List.iter
    (fun (name, make) ->
      let digest, counts =
        match List.find_opt (fun (n, _, _) -> n = name) golden_rows with
        | Some (_, digest, counts) -> (digest, counts)
        | None -> Alcotest.failf "no golden rows recorded for scenario %s" name
      in
      let inst = make None in
      let before = List.map counter_value golden_counters in
      let h = ref fnv_basis in
      for time = 0 to Model.Instance.horizon inst - 1 do
        let grid = Offline.Dp.dense_grids inst time in
        let row = Array.make (Offline.Grid.size grid) 0. in
        Offline.Dp.fill_row inst grid ~time row;
        Array.iter (fun x -> h := fnv_float !h x) row
      done;
      Alcotest.(check string)
        (name ^ " row digest")
        (Printf.sprintf "%016Lx" digest)
        (Printf.sprintf "%016Lx" !h);
      List.iteri
        (fun k counter ->
          checki
            (Printf.sprintf "%s %s" name counter)
            (List.nth counts k)
            (counter_value counter - List.nth before k))
        golden_counters)
    Sim.Scenarios.named

(* --- Forward work --- *)

(* FNV-1a over a schedule's counts, slot by slot. *)
let schedule_digest sched =
  Array.fold_left (Array.fold_left (fun h x -> fnv_float h (float_of_int x))) fnv_basis sched

(* The forward pass runs the online engine's canonical sweep, so a solve
   makes exactly the dispatch solves a streaming session over the same
   loads makes: 88,643 on large-fleet T=192, where filling every state
   made 318,923 and a proof that kept the multiplier of the cell it
   started from made 134,743.  On maintenance T=300 (cross-grid ramps
   at the maintenance windows) it makes 5,522 (full fill 8,263, one
   multiplier per proof 5,645), and on three-tier T=1536 (d=3) 90,803
   (one multiplier per proof 122,588).  Work counts repeat exactly, so
   they pin the saving with no timing noise.  Every cell of a layer is
   computed ([cost.rank_misses]), skipped by a completed proof
   ([forward.proved_cells]) or skipped below the load
   ([forward.skipped_cells]); on large-fleet every computed cell is a
   dispatch solve.  Cost and schedule keep the bits the full fill's
   solve produced. *)
let test_dp_forward_work () =
  let calls () = counter_value "dispatch.calls" in
  let solve inst =
    let before = calls () in
    let r = Offline.Dp.solve inst in
    (calls () - before, Printf.sprintf "%h" r.Offline.Dp.cost,
     Printf.sprintf "%016Lx" (schedule_digest r.Offline.Dp.schedule))
  in
  let horizon = 192 in
  let inst = Sim.Scenarios.large_fleet ~horizon () in
  let cells_before = counter_value "cost.rank_misses"
  and proved_before = counter_value "forward.proved_cells"
  and skipped_before = counter_value "forward.skipped_cells"
  and refits_before = counter_value "forward.refits" in
  let solves, cost, digest = solve inst in
  let counted = counter_value "cost.rank_misses" - cells_before
  and proved = counter_value "forward.proved_cells" - proved_before
  and skipped = counter_value "forward.skipped_cells" - skipped_before in
  checki "every cell computed, proved or skipped"
    (horizon * Offline.Grid.size (Offline.Dp.dense_grids inst 0))
    (counted + proved + skipped);
  checki "cells below the load" 161_269 skipped;
  checki "computed cells" solves counted;
  checkb "refits ran" true (counter_value "forward.refits" > refits_before);
  let types = inst.Model.Instance.types in
  let fns = Array.mapi (fun typ _ -> inst.Model.Instance.cost ~time:0 ~typ) types in
  let session = Online.Streaming.alg_a ~max_horizon:horizon ~types ~fns () in
  let before = calls () in
  Array.iter (fun l -> ignore (Online.Streaming.feed session l)) inst.Model.Instance.load;
  checki "large-fleet solve = streaming session" (calls () - before) solves;
  checkb (Printf.sprintf "large-fleet: %d solves <= 88643" solves) true (solves <= 88_643);
  Alcotest.(check string) "large-fleet cost bits" "0x1.896c8e3eb5841p+13" cost;
  Alcotest.(check string) "large-fleet schedule digest" "a46c2fac1f773f7d" digest;
  let solves, cost, digest = solve (Sim.Scenarios.maintenance ~horizon:300 ()) in
  checkb (Printf.sprintf "maintenance: %d solves <= 5522" solves) true (solves <= 5_522);
  Alcotest.(check string) "maintenance cost bits" "0x1.77140dcf7713dp+10" cost;
  Alcotest.(check string) "maintenance schedule digest" "3024995e9531dafd" digest;
  let solves, cost, digest = solve (Sim.Scenarios.three_tier ~horizon:1536 ()) in
  checkb (Printf.sprintf "three-tier: %d solves <= 90803" solves) true (solves <= 90_803);
  Alcotest.(check string) "three-tier cost bits" "0x1.72f08da184e3p+13" cost;
  Alcotest.(check string) "three-tier schedule digest" "ba4d4ce5ff91c8d5" digest

(* The layer store keeps each line's run of finite cells
   ([dp.stored_cells]), here a sixth to a tenth of the forward pass's
   cells ([dp.cells]).  On these instances every line's finite cells are one
   run, so it keeps exactly the canonical layers' finite cells. *)
let test_dp_stored_cells () =
  let large = Sim.Scenarios.large_fleet ~horizon:384 () in
  List.iter
    (fun (name, inst, grids, stored, cells) ->
      let horizon = Model.Instance.horizon inst in
      let finite = ref 0 in
      let count ~time thunk =
        if time = horizon - 1 then
          Array.iter
            (Array.iter (fun c -> if c < infinity then incr finite))
            (thunk ()).Offline.Dp.layers
      in
      let stored_before = counter_value "dp.stored_cells"
      and cells_before = counter_value "dp.cells" in
      ignore (Offline.Dp.solve ?grids ~on_layer:count inst);
      checki (name ^ " cells") cells (counter_value "dp.cells" - cells_before);
      checki (name ^ " stored cells") stored (counter_value "dp.stored_cells" - stored_before);
      checki (name ^ " finite cells") stored !finite)
    [ ("large-fleet T=384", large, None, 156_733, 960_384);
      ( "large-fleet T=384, eps=0.25",
        large,
        Some (Offline.Dp.approx_grids ~gamma:1.125 large),
        80_885,
        494_208 );
      ("three-tier T=1536", Sim.Scenarios.three_tier ~horizon:1536 (), None, 23_561, 225_792) ]

(* A refit allocates nothing: its Newton steps keep every float in the
   line cursor's all-float records or in registers, so twice the refits
   allocate exactly the words of once.  Large-fleet mixes a quadratic
   (exponent 2) and a power curve (exponent 1.6); the four starting
   multipliers reach the Newton, bisection and capped-response
   branches. *)
let test_refit_allocates_nothing () =
  let inst = Sim.Scenarios.large_fleet ~horizon:12 () in
  let time = 6 in
  let grid = Offline.Dp.dense_grids inst time in
  let values = Offline.Grid.axis_values grid (Offline.Grid.dim grid - 1) in
  let len = Array.length values in
  let ctx =
    Model.Cost.line_ctx ~axes:(Array.init (Offline.Grid.dim grid) (Offline.Grid.axis_values grid))
  in
  Model.Cost.line_layer ctx inst ~time;
  let table = Array.make (Offline.Grid.size grid) nan in
  let rank0 = 30 * len in
  Model.Cost.line_start ctx ~table ~rank0 ~pos:[| 30 |];
  for i = 0 to len / 2 do
    Model.Cost.line_cell ctx i
  done;
  let b = { Model.Cost.icept = 0.; slope = 0.; mu = 0. } in
  checkb "closed-form bound" true (Model.Cost.line_bound ctx b);
  let mu = b.Model.Cost.mu in
  checkb "a solved multiplier" true (mu > 0.);
  let starts = [| mu; 0.; 0.1 *. mu; 10. *. mu |] in
  let ran = ref 0 in
  let refits rounds =
    let before = Gc.minor_words () in
    for _ = 1 to rounds do
      for s = 0 to Array.length starts - 1 do
        b.Model.Cost.mu <- starts.(s);
        for q = 0 to len - 1 do
          if Model.Cost.line_refit ctx b ~v:values.(q) then incr ran
        done
      done
    done;
    Gc.minor_words () -. before
  in
  ignore (refits 1);
  let once = refits 1 in
  checkf 0. "words of two rounds = words of one" once (refits 2);
  checkb "refits ran" true (!ran > 0);
  Model.Cost.line_flush ctx

(* Only a loss by more than the allowance prunes a state; a tie with a
   state below it does not.  At zero load and zero cost every state of
   every layer ties with its lower neighbours (its prefix cost is the
   power-up from the all-off state), so every layer stays finite; with
   free power-ups every state ties at 0, so the online engine's largest
   optimal last configuration is the whole fleet. *)
let test_forward_ties_stay () =
  let fleet beta =
    let types =
      [| st ~count:3 ~switching_cost:beta ~cap:1. (); st ~count:2 ~switching_cost:beta ~cap:2. () |]
    in
    let fns = [| Convex.Fn.const 0.; Convex.Fn.const 0. |] in
    Model.Instance.make_static ~types ~load:(Array.make 4 0.) ~fns ()
  in
  let finite = ref true in
  ignore
    (Offline.Dp.solve
       ~on_layer:(fun ~time thunk ->
         if not (Array.for_all Float.is_finite (thunk ()).Offline.Dp.layers.(time)) then
           finite := false)
       (fleet 1.5));
  checkb "every state of every layer finite" true !finite;
  let engine = Online.Prefix_opt.create (fleet 0.) in
  for _ = 1 to 4 do
    let step = Online.Prefix_opt.step engine in
    Alcotest.(check (array int)) "last" [| 0; 0 |] step.Online.Prefix_opt.last;
    Alcotest.(check (array int)) "last_hi" [| 3; 2 |] step.Online.Prefix_opt.last_hi
  done

(* The online engine's argmins come from the sweep, not from a scan of
   its plane; they must be a full-plane scan's first and last cheapest
   states.  With free power-ups and zero costs every state that covers
   the load ties at 0.  A positive load leaves the states below it at
   +infinity, skipped by the sweep, so the ties start after skipped
   cells; the zero load leaves none. *)
let test_prefix_argmin_is_scan () =
  let types =
    [| st ~count:3 ~switching_cost:0. ~cap:1. (); st ~count:2 ~switching_cost:0. ~cap:2. () |]
  in
  let fns = [| Convex.Fn.const 0.; Convex.Fn.const 0. |] in
  let load = [| 2.5; 0.; 4.; 5.5 |] in
  let inst = Model.Instance.make_static ~types ~load ~fns () in
  let grid = Offline.Grid.dense (Model.Instance.counts inst) in
  let engine = Online.Prefix_opt.create inst in
  Array.iteri
    (fun time _ ->
      let step = Online.Prefix_opt.step engine in
      let plane =
        match Online.Prefix_opt.save engine with
        | Util.Sexp.List (_ :: fields) -> (
            match Util.Snapshot.floats_of_field fields "arrival" with
            | Ok a -> a
            | Error m -> Alcotest.fail m)
        | Util.Sexp.Atom _ | Util.Sexp.List [] -> Alcotest.fail "prefix-opt payload"
      in
      let best = Array.fold_left Float.min infinity plane in
      let lo = ref (-1) and hi = ref (-1) in
      Array.iteri
        (fun i c ->
          if c = best then begin
            if !lo < 0 then lo := i;
            hi := i
          end)
        plane;
      let name = Printf.sprintf "slot %d" time in
      checkb (name ^ ": ties") true (!lo < !hi);
      Alcotest.(check (array int)) (name ^ " last") (Offline.Grid.config_at grid !lo)
        step.Online.Prefix_opt.last;
      Alcotest.(check (array int)) (name ^ " last_hi") (Offline.Grid.config_at grid !hi)
        step.Online.Prefix_opt.last_hi;
      checkf 0. (name ^ " prefix cost") best step.Online.Prefix_opt.prefix_cost)
    load

(* A grid is built once per distinct availability vector: once for a
   static instance's whole horizon, exact or reduced, and once per
   distinct window on maintenance, whose fleet shrinks during upkeep. *)
let test_static_grid_built_once () =
  let builds () = counter_value "grid.builds" in
  let count f =
    let before = builds () in
    f ();
    builds () - before
  in
  let inst = Sim.Scenarios.large_fleet ~horizon:48 () in
  checki "exact solve" 1 (count (fun () -> ignore (Offline.Dp.solve inst)));
  checki "(1+eps) solve" 1 (count (fun () -> ignore (Offline.Dp.solve_approx ~eps:0.25 inst)));
  let m = Sim.Scenarios.maintenance () in
  let d = Model.Instance.num_types m in
  let distinct =
    List.sort_uniq compare
      (List.init (Model.Instance.horizon m) (fun time ->
           Array.init d (fun typ -> m.Model.Instance.avail ~time ~typ)))
  in
  checkb "maintenance varies" true (List.length distinct > 1);
  checki "maintenance solve" (List.length distinct)
    (count (fun () -> ignore (Offline.Dp.solve m)))

(* --- Approximation (Theorems 16 / 21) --- *)

let test_approx_within_bound () =
  let rng = Util.Prng.create 23 in
  for _ = 1 to 15 do
    let d = 1 + Util.Prng.int rng 2 in
    let horizon = 3 + Util.Prng.int rng 3 in
    let inst = Sim.Scenarios.random_static ~rng ~d ~horizon ~max_count:6 in
    let opt = Offline.Dp.solve_optimal inst in
    List.iter
      (fun eps ->
        let ap = Offline.Dp.solve_approx ~eps inst in
        checkb "within (1+eps) OPT" true
          (ap.Offline.Dp.cost <= ((1. +. eps) *. opt.Offline.Dp.cost) +. 1e-6);
        checkb "not below OPT" true (ap.Offline.Dp.cost >= opt.Offline.Dp.cost -. 1e-6);
        checkb "feasible" true (Model.Schedule.feasible inst ap.Offline.Dp.schedule))
      [ 2.; 1.; 0.5; 0.1 ]
  done

let test_approx_converges_to_opt () =
  (* As eps shrinks the approximate cost approaches the optimum. *)
  let inst = Sim.Scenarios.cpu_gpu ~horizon:16 () in
  let opt = Offline.Dp.solve_optimal inst in
  let costs =
    List.map (fun eps -> (Offline.Dp.solve_approx ~eps inst).Offline.Dp.cost) [ 2.; 0.5; 0.05 ]
  in
  (match costs with
  | [ a; b; c ] ->
      checkb "tightens" true (c <= a +. 1e-6 && c <= b +. 1e-6);
      checkb "tight at eps=0.05" true (c <= (1.05 *. opt.Offline.Dp.cost) +. 1e-6)
  | _ -> Alcotest.fail "unreachable");
  checkb "all above OPT" true
    (List.for_all (fun c -> c >= opt.Offline.Dp.cost -. 1e-6) costs)

let test_approx_state_count_smaller () =
  (* The reduction only bites for large fleets: O(log m) vs m + 1. *)
  let types =
    [| st ~count:500 ~switching_cost:2. ~cap:1. ();
       st ~count:300 ~switching_cost:3. ~cap:2. () |]
  in
  let fns = [| Convex.Fn.const 1.; Convex.Fn.const 1. |] in
  let inst = Model.Instance.make_static ~types ~load:(Array.make 4 10.) ~fns () in
  let dense = Offline.Dp.state_count inst ~grids:(Offline.Dp.dense_grids inst) in
  let reduced =
    Offline.Dp.state_count inst ~grids:(Offline.Dp.approx_grids ~gamma:1.5 inst)
  in
  checkb "reduced grid is much smaller" true (reduced * 10 < dense)

(* --- Time-varying sizes (Section 4.3 / Theorem 22) --- *)

let test_timevarying_respects_avail () =
  let inst = Sim.Scenarios.maintenance () in
  let dp = Offline.Dp.solve_optimal inst in
  checkb "feasible incl. availability" true
    (Model.Schedule.feasible inst dp.Offline.Dp.schedule);
  for time = 10 to 14 do
    checkb "maintenance cap" true (dp.Offline.Dp.schedule.(time).(0) <= 2)
  done

let test_timevarying_matches_bruteforce () =
  let types =
    [| st ~count:2 ~switching_cost:1.5 ~cap:1. ();
       st ~count:2 ~switching_cost:2.5 ~cap:2. () |]
  in
  let fns = [| Convex.Fn.const 0.5; Convex.Fn.const 0.8 |] in
  let avail ~time ~typ = if typ = 0 && time = 1 then 0 else 2 in
  let inst = Model.Instance.make_static ~avail ~types ~load:[| 2.; 2.; 2. |] ~fns () in
  let dp = Offline.Dp.solve_optimal inst in
  let bf = Offline.Brute_force.solve inst in
  checkb "agree" true (Util.Float_cmp.close ~eps:1e-6 dp.Offline.Dp.cost bf.Offline.Dp.cost)

let test_timevarying_approx_bound () =
  let inst = Sim.Scenarios.maintenance () in
  let opt = Offline.Dp.solve_optimal inst in
  let ap = Offline.Dp.solve_approx ~eps:0.5 inst in
  checkb "Theorem 22 bound" true (ap.Offline.Dp.cost <= (1.5 *. opt.Offline.Dp.cost) +. 1e-6);
  checkb "feasible" true (Model.Schedule.feasible inst ap.Offline.Dp.schedule)

(* --- Scale (marked Slow) --- *)

let test_scale_long_horizon () =
  (* d = 1, m = 50, T = 2000: linear-in-T behaviour of the transform DP. *)
  let types = [| st ~count:50 ~switching_cost:3. ~cap:1. () |] in
  let fns = [| Convex.Fn.power ~idle:0.5 ~coef:0.8 ~expo:2. |] in
  let load = Sim.Workload.diurnal ~horizon:2000 ~period:48 ~base:2. ~peak:45. () in
  let inst = Model.Instance.make_static ~types ~load ~fns () in
  let r = Offline.Dp.solve_optimal inst in
  checkb "finite" true (Float.is_finite r.Offline.Dp.cost);
  checkb "feasible" true (Model.Schedule.feasible inst r.Offline.Dp.schedule)

let test_scale_huge_fleet_approx () =
  (* m = 100_000: only the reduced grid is tractable; 35 states/slot. *)
  let types = [| st ~count:100_000 ~switching_cost:2. ~cap:1. () |] in
  let fns = [| Convex.Fn.power ~idle:0.4 ~coef:0.6 ~expo:2. |] in
  let load = Sim.Workload.diurnal ~horizon:48 ~period:24 ~base:100. ~peak:90_000. () in
  let inst = Model.Instance.make_static ~types ~load ~fns () in
  let r = Offline.Dp.solve_approx ~eps:0.5 inst in
  checkb "finite" true (Float.is_finite r.Offline.Dp.cost);
  checkb "feasible" true (Model.Schedule.feasible inst r.Offline.Dp.schedule);
  let grid = Offline.Dp.approx_grids ~gamma:1.25 inst 0 in
  checkb "log-sized grid" true (Offline.Grid.size grid < 120)

let test_scale_online_long_run () =
  (* Algorithm A over a long horizon stays linear-ish via the prefix
     engine (one offline solve's worth of work in total). *)
  let types = [| st ~count:20 ~switching_cost:3. ~cap:1. () |] in
  let fns = [| Convex.Fn.power ~idle:0.5 ~coef:0.8 ~expo:2. |] in
  let load = Sim.Workload.diurnal ~horizon:1000 ~period:40 ~base:1. ~peak:18. () in
  let inst = Model.Instance.make_static ~types ~load ~fns () in
  let r = Online.Alg_a.run inst in
  checkb "feasible" true (Model.Schedule.feasible inst r.Online.Alg_a.schedule);
  let opt = (Offline.Dp.solve_optimal inst).Offline.Dp.cost in
  checkb "within 3" true (Model.Cost.schedule inst r.Online.Alg_a.schedule <= 3. *. opt)

(* --- Brute force itself --- *)

let test_bruteforce_too_large () =
  let types = [| st ~count:20 ~switching_cost:1. ~cap:1. () |] in
  let fns = [| Convex.Fn.const 1. |] in
  let inst = Model.Instance.make_static ~types ~load:(Array.make 8 1.) ~fns () in
  checkb "guard trips" true
    (try ignore (Offline.Brute_force.solve ~limit:1000 inst); false
     with Offline.Brute_force.Too_large _ -> true)

let () =
  Alcotest.run "offline"
    [ ( "grid",
        [ Alcotest.test_case "dense" `Quick test_grid_dense;
          Alcotest.test_case "index roundtrip" `Quick test_grid_indexing_roundtrip;
          Alcotest.test_case "iter lexicographic" `Quick test_grid_iter_order_lexicographic;
          Alcotest.test_case "power axis Figure 5" `Quick test_grid_power_axis;
          Alcotest.test_case "power ratio bound" `Quick test_grid_power_ratio_bound;
          Alcotest.test_case "power contains extremes" `Quick test_grid_power_contains_extremes;
          Alcotest.test_case "power with zero count" `Quick test_grid_power_zero_count;
          Alcotest.test_case "round up/down" `Quick test_grid_round_up_down;
          Alcotest.test_case "equality" `Quick test_grid_equal;
          Alcotest.test_case "validation" `Quick test_grid_validation
        ] );
      ( "transform",
        [ Alcotest.test_case "ramp_line vs brute force" `Quick test_ramp_line_matches_bruteforce;
          Alcotest.test_case "ramp_line with infinities" `Quick test_ramp_line_infinity;
          Alcotest.test_case "ramp_between vs brute force" `Quick
            test_ramp_between_matches_bruteforce;
          Alcotest.test_case "2-D descent" `Quick test_ramp_grid_2d;
          Alcotest.test_case "2-D climb costs" `Quick test_ramp_grid_up_costs;
          Alcotest.test_case "across = in-place on equal grids" `Quick
            test_ramp_across_matches_dense;
          Alcotest.test_case "across mismatched grids" `Quick test_ramp_across_mismatched;
          Alcotest.test_case "across segments bounds-checked" `Quick
            test_ramp_across_segments_checked;
          Alcotest.test_case "no ops row = zero row, bit for bit" `Quick test_ramp_without_ops
        ] );
      ( "layer_store",
        [ Alcotest.test_case "round trip, bit for bit" `Quick test_layer_store_round_trip ] );
      ( "dp",
        [ Alcotest.test_case "matches brute force (static)" `Quick test_dp_matches_bruteforce;
          Alcotest.test_case "matches brute force (dynamic)" `Quick
            test_dp_matches_bruteforce_dynamic;
          Alcotest.test_case "cost equals schedule cost" `Quick test_dp_cost_equals_schedule_cost;
          Alcotest.test_case "Figure 4 instance" `Quick test_dp_figure4_instance;
          Alcotest.test_case "bridges short gaps" `Quick test_dp_idle_bridging;
          Alcotest.test_case "powers down across long gaps" `Quick
            test_dp_powers_down_across_long_gap;
          Alcotest.test_case "infeasible raises" `Quick test_dp_infeasible_raises;
          Alcotest.test_case "initial state" `Quick test_dp_initial_state;
          Alcotest.test_case "fill rows match the golden digests" `Quick
            test_fill_rows_golden;
          Alcotest.test_case "forward work = online engine's, same bits" `Quick
            test_dp_forward_work;
          Alcotest.test_case "stored cells = finite cells" `Quick test_dp_stored_cells;
          Alcotest.test_case "tied states are not pruned" `Quick test_forward_ties_stay;
          Alcotest.test_case "online argmins = full-plane scan" `Quick test_prefix_argmin_is_scan;
          Alcotest.test_case "one grid per availability vector" `Quick
            test_static_grid_built_once;
          Alcotest.test_case "refits allocate nothing" `Quick test_refit_allocates_nothing
        ] );
      ( "approx",
        [ Alcotest.test_case "Theorem 16 bound" `Quick test_approx_within_bound;
          Alcotest.test_case "converges to OPT" `Quick test_approx_converges_to_opt;
          Alcotest.test_case "reduced state count" `Quick test_approx_state_count_smaller
        ] );
      ( "time_varying",
        [ Alcotest.test_case "respects availability" `Quick test_timevarying_respects_avail;
          Alcotest.test_case "matches brute force" `Quick test_timevarying_matches_bruteforce;
          Alcotest.test_case "Theorem 22 bound" `Quick test_timevarying_approx_bound
        ] );
      ( "scale",
        [ Alcotest.test_case "long horizon (T = 2000)" `Slow test_scale_long_horizon;
          Alcotest.test_case "huge fleet via reduced grid (m = 100k)" `Slow
            test_scale_huge_fleet_approx;
          Alcotest.test_case "long online run (T = 1000)" `Slow test_scale_online_long_run
        ] );
      ( "brute_force",
        [ Alcotest.test_case "work-limit guard" `Quick test_bruteforce_too_large ] )
    ]

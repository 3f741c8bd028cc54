(* Unit tests for the persistent domain pool (Util.Pool) and the
   bit-identity property of the pooled DP pipeline: a pooled Dp.solve
   must return exactly the same cost and schedule as the sequential
   solve on every instance, because parallelism only ever recomputes
   the same float expressions into disjoint slots.

   Property instances are derived deterministically from a generated
   integer seed (the test_props.ml convention), so shrinking walks over
   seeds and failures are replayable. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

exception Boom of int

(* --- pool unit tests --- *)

let test_pool_runs_every_index () =
  Util.Pool.with_pool ~domains:3 @@ fun pool ->
  List.iter
    (fun n ->
      let hits = Array.make (max n 1) 0 in
      Util.Pool.run pool ~n (fun i -> hits.(i) <- hits.(i) + 1);
      for i = 0 to n - 1 do
        if hits.(i) <> 1 then Alcotest.failf "n=%d: index %d ran %d times" n i hits.(i)
      done)
    [ 0; 1; 2; 7; 64; 1000 ]

let test_pool_reuse_across_calls () =
  (* One pool, many jobs: workers are spawned once and survive. *)
  let spawns = Option.get (Obs.Counter.find "pool.domain_spawns") in
  let jobs = Option.get (Obs.Counter.find "pool.jobs") in
  Util.Pool.with_pool ~domains:2 @@ fun pool ->
  let spawns_before = Obs.Counter.value spawns in
  let jobs_before = Obs.Counter.value jobs in
  let acc = Atomic.make 0 in
  for _ = 1 to 20 do
    Util.Pool.run pool ~n:100 (fun i -> ignore (Atomic.fetch_and_add acc i))
  done;
  checki "sum of 20 x (0+...+99)" (20 * 4950) (Atomic.get acc);
  checki "no new spawns across 20 jobs" spawns_before (Obs.Counter.value spawns);
  checki "20 jobs counted" (jobs_before + 20) (Obs.Counter.value jobs)

let test_pool_exception_propagation () =
  Util.Pool.with_pool ~domains:2 @@ fun pool ->
  (match Util.Pool.run pool ~n:500 (fun i -> if i = 137 then raise (Boom i)) with
  | () -> Alcotest.fail "expected Boom to propagate"
  | exception Boom 137 -> ());
  (* The pool survives a failed job and runs the next one normally. *)
  let acc = Atomic.make 0 in
  Util.Pool.run pool ~n:100 (fun i -> ignore (Atomic.fetch_and_add acc i));
  checki "usable after exception" 4950 (Atomic.get acc)

let test_pool_nested_submit () =
  (* run from inside a work item degrades to sequential, no deadlock. *)
  Util.Pool.with_pool ~domains:2 @@ fun pool ->
  let acc = Atomic.make 0 in
  Util.Pool.run pool ~n:8 (fun _ ->
      Util.Pool.run pool ~n:10 (fun j -> ignore (Atomic.fetch_and_add acc j)));
  checki "nested ranges all ran" (8 * 45) (Atomic.get acc);
  checkb "nested jobs counted" true
    (Obs.Counter.value (Option.get (Obs.Counter.find "pool.nested_jobs")) > 0)

let test_pool_shutdown_idempotent () =
  let pool = Util.Pool.create ~domains:3 () in
  checkb "not shut down yet" false (Util.Pool.is_shutdown pool);
  Util.Pool.shutdown pool;
  checkb "shut down" true (Util.Pool.is_shutdown pool);
  Util.Pool.shutdown pool;
  (* run after shutdown is a programming error, not a hang. *)
  (match Util.Pool.run pool ~n:10 ignore with
  | () -> Alcotest.fail "run after shutdown should raise"
  | exception Invalid_argument _ -> ())

let test_pool_size_and_workers_cap () =
  Util.Pool.with_pool ~domains:4 @@ fun pool ->
  checki "size" 4 (Util.Pool.size pool);
  (* Capping workers below the pool size still completes the range. *)
  let hits = Array.make 600 0 in
  Util.Pool.run ~workers:2 pool ~n:600 (fun i -> hits.(i) <- hits.(i) + 1);
  checkb "every index once" true (Array.for_all (( = ) 1) hits);
  (* domains is clamped to >= 1 and a size-1 pool runs inline. *)
  Util.Pool.with_pool ~domains:0 @@ fun tiny ->
  checki "clamped to 1" 1 (Util.Pool.size tiny);
  let acc = ref 0 in
  Util.Pool.run tiny ~n:50 (fun i -> acc := !acc + i);
  checki "inline run" 1225 !acc

let test_pool_concurrent_writes_disjoint () =
  Util.Pool.with_pool ~domains:4 @@ fun pool ->
  let n = 10_000 in
  let out = Array.make n 0. in
  Util.Pool.run pool ~n (fun i -> out.(i) <- sqrt (float_of_int i));
  let expect = Array.init n (fun i -> sqrt (float_of_int i)) in
  Alcotest.(check (array (float 0.))) "disjoint slots all written" expect out

(* --- pooled DP bit-identity properties --- *)

let schedules_equal a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> x = y) a b

(* Small random instances; min_items:1 is not available through
   Dp.solve, so force fan-out by solving on a pool while the grids stay
   under the cutoff (exercising the sequential fallback) AND by using
   instances above the cutoff (exercising the pool).  Both must be
   bit-identical. *)
let random_instance seed =
  let rng = Util.Prng.create seed in
  if Util.Prng.int rng 2 = 0 then
    Sim.Scenarios.random_static ~rng ~d:(1 + Util.Prng.int rng 2) ~horizon:(3 + Util.Prng.int rng 5)
      ~max_count:3
  else
    Sim.Scenarios.random_dynamic ~rng ~d:(1 + Util.Prng.int rng 2)
      ~horizon:(3 + Util.Prng.int rng 4) ~max_count:3

let prop_pooled_dp_identical pool seed =
  let inst = random_instance seed in
  let seq = Offline.Dp.solve inst in
  let par = Offline.Dp.solve ~pool inst in
  seq.Offline.Dp.cost = par.Offline.Dp.cost
  && schedules_equal seq.Offline.Dp.schedule par.Offline.Dp.schedule

(* A dense instance (11*7*5 = 385 states) whose pooled solve fans out:
   the reconstruction hands a layer to the pool only when it holds at
   least min_parallel_items (256) finite cells.  Loads alternate
   between nearly the whole fleet (35 to 37.5 of capacity 38) and
   little (below 5), and every server idles for less than its switching
   cost, so after each peak the states below the peak's configuration
   stay finite: each low slot's layer keeps 256 to 385 finite cells (in
   every one of 300 seeds tried).  On a multi-core runner both pooled
   solves must move [parallel.fills]. *)
let prop_pooled_dp_identical_large pool seed =
  let rng = Util.Prng.create seed in
  let types =
    [| Model.Server_type.make ~name:"a" ~count:10
         ~switching_cost:(1.5 +. Util.Prng.float rng 3.)
         ~cap:1. ();
       Model.Server_type.make ~name:"b" ~count:6
         ~switching_cost:(1.5 +. Util.Prng.float rng 3.)
         ~cap:2. ();
       Model.Server_type.make ~name:"c" ~count:4
         ~switching_cost:(1.5 +. Util.Prng.float rng 3.)
         ~cap:4. () |]
  in
  let fns =
    [| Convex.Fn.power ~idle:(0.2 +. Util.Prng.float rng 1.) ~coef:0.8 ~expo:2.;
       Convex.Fn.power ~idle:(0.2 +. Util.Prng.float rng 1.) ~coef:0.5 ~expo:1.8;
       Convex.Fn.const (0.3 +. Util.Prng.float rng 1.) |]
  in
  let load =
    Array.init 6 (fun t ->
        if t mod 2 = 0 then 35. +. Util.Prng.float rng 2.5 else Util.Prng.float rng 5.)
  in
  let inst = Model.Instance.make_static ~types ~load ~fns () in
  let fills = Option.get (Obs.Counter.find "parallel.fills") in
  let fanned_out solve =
    let before = Obs.Counter.value fills in
    let r = solve () in
    (r, Util.Parallel.recommended_domains () = 1 || Obs.Counter.value fills > before)
  in
  let seq = Offline.Dp.solve inst in
  let par, par_fanned = fanned_out (fun () -> Offline.Dp.solve ~pool inst) in
  let par4, par4_fanned =
    fanned_out (fun () ->
        Util.Pool.with_pool ~domains:4 (fun pool -> Offline.Dp.solve ~pool inst))
  in
  par_fanned && par4_fanned
  && seq.Offline.Dp.cost = par.Offline.Dp.cost
  && schedules_equal seq.Offline.Dp.schedule par.Offline.Dp.schedule
  && seq.Offline.Dp.cost = par4.Offline.Dp.cost
  && schedules_equal seq.Offline.Dp.schedule par4.Offline.Dp.schedule

let prop_pooled_approx_identical pool seed =
  let inst = random_instance seed in
  let seq = Offline.Dp.solve_approx ~eps:0.5 inst in
  let par = Offline.Dp.solve_approx ~pool ~eps:0.5 inst in
  seq.Offline.Dp.cost = par.Offline.Dp.cost
  && schedules_equal seq.Offline.Dp.schedule par.Offline.Dp.schedule

(* The plane ramps fan out only when one axis pass touches at least
   4,096 elements, which no DP test grid reaches (the largest has 2,501
   states).  A 100x100 grid clears it on both passes, in place and
   across to a coarser 34x34 grid (axes 0, 3, ..., 99), and the pooled
   result must equal the sequential one bit for bit. *)
let test_ramp_planes_fan_out pool () =
  let grid = Offline.Grid.dense [| 99; 99 |] in
  let coarse_axis = Array.init 34 (fun i -> 3 * i) in
  let coarse = Offline.Grid.make [| coarse_axis; coarse_axis |] in
  let n = Offline.Grid.size grid and nc = Offline.Grid.size coarse in
  let betas = [| 1.5; 2.5 |] in
  let rng = Util.Prng.create 11 in
  let row len =
    Array.init len (fun i -> if i mod 17 = 0 then infinity else Util.Prng.float rng 50.)
  in
  let costs = row n and ops = row n and ops_c = row nc in
  let plane () =
    let p = Offline.Plane.create n in
    Offline.Plane.of_array costs p ~off:0;
    p
  in
  let bits p len =
    Array.map Int64.bits_of_float (Offline.Plane.to_array p ~off:0 ~len)
  in
  let fills = Option.get (Obs.Counter.find "parallel.fills") in
  let fanned_out before =
    if Util.Parallel.recommended_domains () > 1 then
      checkb "parallel.fills moved" true (Obs.Counter.value fills > before)
  in
  let seq = plane () and par = plane () in
  Offline.Transform.ramp_grid_plane ~ops ~grid ~betas seq ~off:0;
  let before = Obs.Counter.value fills in
  Offline.Transform.ramp_grid_plane ~pool ~ops ~grid ~betas par ~off:0;
  fanned_out before;
  Alcotest.(check (array int64)) "in place: pooled = sequential" (bits seq n) (bits par n);
  let across ?pool () =
    let dst = Offline.Plane.create nc in
    Offline.Transform.ramp_across_plane ?pool ~ops:ops_c ~src_grid:grid
      ~dst_grid:coarse ~betas ~src:(plane ()) ~soff:0
      ~tmp:(Offline.Plane.create n, Offline.Plane.create n)
      dst ~doff:0;
    bits dst nc
  in
  let seq = across () in
  let before = Obs.Counter.value fills in
  let par = across ~pool () in
  fanned_out before;
  Alcotest.(check (array int64)) "across: pooled = sequential" seq par

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let mk_prop ?(count = 25) ~name prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count seed_gen prop)

let () =
  (* One shared pool for every property: also exercises reuse across
     hundreds of jobs interleaved with sequential solves. *)
  let pool = Util.Pool.create ~name:"test" ~domains:3 () in
  Fun.protect ~finally:(fun () -> Util.Pool.shutdown pool) @@ fun () ->
  Alcotest.run ~and_exit:false "pool"
      [ ( "unit",
          [ Alcotest.test_case "every index runs once" `Quick test_pool_runs_every_index;
            Alcotest.test_case "reuse across calls" `Quick test_pool_reuse_across_calls;
            Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagation;
            Alcotest.test_case "nested submit is safe" `Quick test_pool_nested_submit;
            Alcotest.test_case "shutdown idempotence" `Quick test_pool_shutdown_idempotent;
            Alcotest.test_case "size and workers cap" `Quick test_pool_size_and_workers_cap;
            Alcotest.test_case "disjoint concurrent writes" `Quick
              test_pool_concurrent_writes_disjoint
          ] );
        ( "dp-bit-identity",
          [ mk_prop ~name:"pooled Dp.solve = sequential (random instances)"
              (prop_pooled_dp_identical pool);
            mk_prop ~count:5 ~name:"pooled Dp.solve = sequential (dense d=3, fans out)"
              (prop_pooled_dp_identical_large pool);
            mk_prop ~count:15 ~name:"pooled solve_approx = sequential"
              (prop_pooled_approx_identical pool);
            Alcotest.test_case "pooled plane ramps = sequential (fan out)" `Quick
              (test_ramp_planes_fan_out pool)
          ] )
      ]

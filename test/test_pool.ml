(* Unit tests for the persistent domain pool (Util.Pool), whose user is
   the daemon's per-round session fan-out. *)

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

let test_pool_size_and_clamp () =
  Util.Pool.with_pool ~domains:4 @@ fun pool ->
  checki "size" 4 (Util.Pool.size pool);
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

let () =
  Alcotest.run "pool"
    [ ( "unit",
        [ Alcotest.test_case "every index runs once" `Quick test_pool_runs_every_index;
          Alcotest.test_case "reuse across calls" `Quick test_pool_reuse_across_calls;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagation;
          Alcotest.test_case "nested submit is safe" `Quick test_pool_nested_submit;
          Alcotest.test_case "shutdown idempotence" `Quick test_pool_shutdown_idempotent;
          Alcotest.test_case "size and clamp" `Quick test_pool_size_and_clamp;
          Alcotest.test_case "disjoint concurrent writes" `Quick
            test_pool_concurrent_writes_disjoint
        ] )
    ]

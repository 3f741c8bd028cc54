(* The offline-solve workload: exact and (1+eps) solves of seeded
   long-horizon instances through the Core facade, in process. *)

let now = Clock.now

(* Each instance's loads, generated once: the driver's own hashing stays
   out of every timing. *)
let loads (o : Gen.offline) ~seed =
  List.mapi
    (fun i (scenario, horizon) ->
      (scenario, Gen.loads ~seed ~cap:(Gen.capacity scenario) ~stream:i ~from:0 ~len:horizon))
    o.Gen.instances

let build o ~seed = List.map (fun (scenario, l) -> Gen.instance scenario l) (loads o ~seed)

(* Re-price both schedules with Model.Cost.schedule and check
   exact <= approx <= (1+eps) exact. *)
let check r ~eps inst (opt_sched, opt) (apx_sched, apx) =
  Report.attempt r ~n:2;
  let bad m =
    Report.fail r;
    Report.note r "FAILED: %s" m
  in
  List.iter
    (fun (what, sched, cost) ->
      let c = Core.Cost.schedule inst sched in
      if not (Core.Schedule.feasible inst sched) then bad (what ^ " schedule infeasible");
      if not (Arith.rel_le c cost && Arith.rel_le cost c) then
        bad (Printf.sprintf "%s cost %.17g re-prices to %.17g" what cost c))
    [ ("exact", opt_sched, opt); ("approx", apx_sched, apx) ];
  if not (Arith.rel_le opt apx && Arith.rel_le apx ((1. +. eps) *. opt)) then
    bad (Printf.sprintf "exact %.17g approx %.17g breaks the (1+eps) order" opt apx)

(* An exact solve, stamping the end of every forward layer. *)
let exact_solve inst ~stamps ~n =
  let res =
    Core.Offline_dp.solve
      ~on_layer:(fun ~time:_ _ ->
        if !n < Array.length stamps then stamps.(!n) <- now ();
        incr n)
      inst
  in
  (res.Core.Offline_dp.schedule, res.Core.Offline_dp.cost)

(* Set-up is the program's instance build (the scenario's fleet and
   cost functions, then Instance.make_static) of every instance, from
   loads generated beforehand.  Building both takes 10-20 microseconds,
   so each sample times a hundred; a few samples before every round spread
   them over the run like the solves. *)
let time_builds loads builds =
  for _ = 1 to 5 do
    let t0 = now () in
    for _ = 1 to 100 do
      List.iter (fun (scenario, l) -> ignore (Sys.opaque_identity (Gen.instance scenario l))) loads
    done;
    Floats.add builds ((now () -. t0) /. 100.)
  done

(* Every round builds each instance and solves it exactly and to
   (1+eps).  The time from the exact solve's start to its first forward
   layer (the solver's own preparation) is printed, not gated: on the
   same inputs it moved between about 1.8 and 3.4 ms from one process
   to the next. *)
let run ~(o : Gen.offline) ~seed ~seconds r =
  let loads = loads o ~seed in
  let per_round = List.fold_left (fun a (_, l) -> a + Array.length l) 0 loads in
  let builds = Floats.create () in
  let layer_ms = ref [] and exact = ref [] and approx = ref [] and first = ref [] in
  let slots = ref 0 and solving = ref 0. in
  let until = now () +. seconds in
  (* at least enough rounds for the layer p99 to have ten samples beyond it *)
  while now () < until || List.length !layer_ms < 1000 do
    (* every round starts from the same heap, so the peak memory is one
       round's rather than however many dead arenas the run has piled up *)
    Gc.full_major ();
    time_builds loads builds;
    let t_exact = ref 0. and t_apx = ref 0. and t_first = ref 0. in
    List.iter
      (fun (scenario, l) ->
        let inst = Gen.instance scenario l in
        let h = Core.Instance.horizon inst in
        let stamps = Array.make h 0. and n = ref 0 in
        let t0 = now () in
        let opt = exact_solve inst ~stamps ~n in
        let t1 = now () in
        let apx = Core.solve_approx ~eps:o.Gen.eps inst in
        let t2 = now () in
        t_first := !t_first +. (stamps.(0) -. t0);
        t_exact := !t_exact +. (t1 -. t0);
        t_apx := !t_apx +. (t2 -. t1);
        if !n <> h then begin
          Report.fail r;
          Report.note r "FAILED: %d forward layers for %d slots" !n h
        end;
        Array.iteri
          (fun k t -> layer_ms := (1e3 *. (t -. if k = 0 then t0 else stamps.(k - 1))) :: !layer_ms)
          stamps;
        check r ~eps:o.Gen.eps inst opt apx)
      loads;
    first := !t_first :: !first;
    exact := !t_exact :: !exact;
    approx := !t_apx :: !approx;
    solving := !solving +. !t_exact +. !t_apx;
    slots := !slots + (2 * per_round)
  done;
  let layer_ms = Array.of_list !layer_ms and builds = Floats.contents builds in
  let exact = Array.of_list !exact and approx = Array.of_list !approx in
  Report.describe r "instance build, every instance (s)" builds ~unit:"s";
  Report.describe r "exact solve to its first layer, per round (ms, ungated)"
    (Array.map (( *. ) 1e3) (Array.of_list !first)) ~unit:"ms";
  Report.describe r "exact forward layer (ms)" layer_ms ~unit:"ms";
  Report.note r "%d rounds of %d instances (%d slots each round)" (Array.length exact)
    (List.length loads) per_round;
  Report.note r "per round: exact %.4f s, approx %.4f s (medians)" (Arith.median exact)
    (Arith.median approx);
  Report.metric r "decisions_per_s" "1/s" (float_of_int !slots /. !solving);
  Report.metric r "setup_s" "s" (Arith.median builds);
  Report.metric r "peak_rss_mb" "MB" (Serve.vmhwm_mb (Unix.getpid ()))

(* Unit tests for the online layer: the prefix-optimal engine, algorithms
   A (Section 2), B (Section 3.1), C (Section 3.2), the baselines, the
   chasing adversary, and the harness. *)

let checkb = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))
let checki = Alcotest.(check int)

let st = Model.Server_type.make

(* --- Prefix_opt --- *)

let test_prefix_cost_matches_offline () =
  let inst = Sim.Scenarios.cpu_gpu ~horizon:10 () in
  let engine = Online.Prefix_opt.create inst in
  for t = 1 to 10 do
    let { Online.Prefix_opt.prefix_cost; _ } = Online.Prefix_opt.step engine in
    let direct = Offline.Dp.solve_optimal (Model.Instance.prefix inst t) in
    checkb
      (Printf.sprintf "prefix %d" t)
      true
      (Util.Float_cmp.close ~eps:1e-6 prefix_cost direct.Offline.Dp.cost)
  done

let test_prefix_last_is_optimal_end () =
  (* The returned configuration must close an optimal prefix schedule:
     same cost as the offline solve of the prefix. *)
  let inst = Sim.Scenarios.homogeneous ~horizon:8 () in
  let engine = Online.Prefix_opt.create inst in
  for t = 1 to 8 do
    let { Online.Prefix_opt.last; last_hi; _ } = Online.Prefix_opt.step engine in
    let direct = Offline.Dp.solve_optimal (Model.Instance.prefix inst t) in
    (* The lexicographically-smallest DP solve ends in [last .. last_hi]. *)
    let final = direct.Offline.Dp.schedule.(t - 1) in
    checkb "within argmin range" true
      (Model.Config.compare last final <= 0 && Model.Config.compare final last_hi <= 0)
  done

let test_prefix_step_past_horizon_raises () =
  let inst = Sim.Scenarios.homogeneous ~horizon:2 () in
  let engine = Online.Prefix_opt.create inst in
  ignore (Online.Prefix_opt.step engine);
  ignore (Online.Prefix_opt.step engine);
  checki "clock" 2 (Online.Prefix_opt.time engine);
  checkb "raises" true
    (try ignore (Online.Prefix_opt.step engine); false with Invalid_argument _ -> true)

(* The engine's live state is O(grid) — the arrival plane and one
   operating-cost row — however many slots it has processed. *)
let test_prefix_memory_flat_in_slots () =
  let inst = Sim.Scenarios.cpu_gpu ~horizon:400 () in
  let engine = Online.Prefix_opt.create inst in
  let words () = Obj.reachable_words (Obj.repr engine) in
  for _ = 1 to 16 do
    ignore (Online.Prefix_opt.step engine)
  done;
  let after_16 = words () in
  for _ = 17 to 400 do
    ignore (Online.Prefix_opt.step engine)
  done;
  checki "words reachable after 16 and after 400 steps" after_16 (words ())

(* A stepper keeps only its open groups: its state, less the instance it
   reads and its power-event log, is as large after 16,384 slots as after
   1,024.  The log is one word per event, in an int array per type that
   doubles from 8 words as it fills (stepper.mli), so a type with [n]
   events holds a block of the first such capacity at or above [n], plus
   its header.  Both runs end at the same phase of a 64-slot triangle
   wave of targets, so the same groups are open at both ends. *)
let test_stepper_state_flat_in_slots () =
  let words make scenario horizon =
    let inst = scenario horizon in
    let stepper = make inst in
    let d = Model.Instance.num_types inst in
    for time = 0 to horizon - 1 do
      let level = abs ((time mod 64) - 32) in
      ignore
        (Online.Stepper.step stepper ~time
           ~hat:(Array.init d (fun typ -> Model.Instance.max_count inst ~typ * level / 32)))
    done;
    let reach v = Obj.reachable_words (Obj.repr v) in
    let events = Online.Stepper.power_ups stepper @ Online.Stepper.power_downs stepper in
    let log_words typ =
      let n = List.length (List.filter (fun (_, j, _) -> j = typ) events) in
      let rec capacity c = if c >= n then c else capacity (2 * c) in
      if n = 0 then 0 else 1 + capacity 8
    in
    reach stepper - reach inst - List.fold_left ( + ) 0 (List.init d log_words)
  in
  let cpu_gpu horizon = Sim.Scenarios.cpu_gpu ~horizon () in
  let homogeneous horizon = Sim.Scenarios.homogeneous ~horizon () in
  List.iter
    (fun (name, make, scenario) ->
      checki
        (name ^ ": words after 1,024 and after 16,384 slots")
        (words make scenario 1024) (words make scenario 16384))
    [ ("a", Online.Stepper.alg_a, cpu_gpu);
      ("b", Online.Stepper.alg_b, cpu_gpu);
      ("homog", Online.Stepper.alg_homog, homogeneous) ]

(* A served cpu-gpu session (algorithm A) holds at most 10,000 words
   after 4,096 slots of a diurnal load: the stepper logs each power
   event in one word.  While every event was a cons cell and a triple,
   7 words, this session held 30,971 words. *)
let test_session_words_after_4096_slots () =
  let session =
    match
      Server.Session.create ~id:"m"
        { Server.Session.scenario = "cpu-gpu"; max_horizon = None; alg = None }
    with
    | Ok s -> s
    | Error (_, m) -> Alcotest.fail m
  in
  checkb "the session runs algorithm A" true (Server.Session.alg session = "a");
  let cap =
    Array.fold_left
      (fun acc st -> acc +. (float_of_int st.Model.Server_type.count *. st.Model.Server_type.cap))
      0. (Sim.Scenarios.cpu_gpu ()).Model.Instance.types
  in
  let rng = Util.Prng.create 1 in
  let loads =
    Array.init 4096 (fun t ->
        let day = 0.5 -. (0.5 *. cos (2. *. Float.pi *. float_of_int t /. 96.)) in
        let noise = 0.92 +. Util.Prng.float rng 0.16 in
        cap *. Float.min 0.92 (Float.max 0.05 ((0.1 +. (0.7 *. day)) *. noise)))
  in
  (match Server.Session.feed session ~seq:0 loads with
  | Ok _ -> ()
  | Error (_, m) -> Alcotest.fail m);
  let words = Obj.reachable_words (Obj.repr session) in
  checkb (Printf.sprintf "%d words <= 10,000" words) true (words <= 10_000)

(* The forward pass refills one reused row, so a solve allocates about
   one layer's worth of floats in the major heap, not one table per
   slot.  The layer arena is a Bigarray outside the OCaml heap.  Words
   promoted from the minor heap are left out: they are whatever short-
   lived values a minor collection happens to find live, so their count
   follows GC pacing rather than what the solve keeps. *)
let test_dp_solve_major_heap_is_one_layer () =
  let inst = Sim.Scenarios.large_fleet ~horizon:64 () in
  let layer = Offline.Grid.size (Offline.Dp.dense_grids inst 0) in
  let direct_major_words () =
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = direct_major_words () in
  ignore (Offline.Dp.solve inst);
  let words = direct_major_words () -. before in
  checkb
    (Printf.sprintf "%.0f words allocated in the major heap < 4 layers of %d" words layer)
    true
    (words < 4. *. float_of_int layer)

(* A dispatch cell of the operating-cost fill allocates nothing, and
   neither does building the power-curve dispatch pieces of a
   large-fleet layer (2,501 states): their kernel constants are stored
   unboxed in the fill context's tables.  A [Dp.fill_row] layer, which
   makes a context sized for the grid (its piece tables, line cursor
   and dispatch sweep) and builds every piece, allocates at most
   [fill_ceiling] words (1,265 at slots 0, 6 and 12, of which 818 are
   the two packed piece tables, allocated directly in the major heap),
   and a warm [Prefix_opt.step], whose context lives with its sweep,
   [step_ceiling] (262).  When each piece was a [Fn.t] with its probe
   constants and boxed caches, about 50 words apiece, they allocated
   4,639, 4,736, 4,107 and 3,523 words, all in the minor heap, under
   ceilings of 4,761 and 3,523.  One boxed float per dispatch cell would push every
   measurement over its ceiling.  Minor words are exact on OCaml 5: the
   same count in every run.  A fill keeps no scratch from an earlier
   one, so the first fill of the process is measured like the rest. *)
let fill_ceiling = 1_500.
let step_ceiling = 400.

let test_fill_allocation_ceiling () =
  let inst = Sim.Scenarios.large_fleet () in
  let grid = Offline.Dp.dense_grids inst 0 in
  let n = Offline.Grid.size grid in
  let ceiling = fill_ceiling in
  let row = Array.make n 0. in
  (* Words allocated in the minor heap plus those allocated directly in
     the major heap (blocks over 256 words, such as a piece table's
     packed entries), which [Gc.minor_words] does not see; the major
     heap's come from [Gc.counters], outside the minor count's window. *)
  let minor_words f =
    let direct () =
      let _, promoted, major = Gc.counters () in
      major -. promoted
    in
    let d0 = direct () in
    let m0 = Gc.minor_words () in
    f ();
    let m1 = Gc.minor_words () in
    m1 -. m0 +. (direct () -. d0)
  in
  List.iter
    (fun time ->
      let words = minor_words (fun () -> Offline.Dp.fill_row inst grid ~time row) in
      checkb
        (Printf.sprintf "fill_row at slot %d: %.0f words <= %.0f" time words ceiling)
        true (words <= ceiling))
    [ 0; 6; 12 ];
  let engine = Online.Prefix_opt.create inst in
  for _ = 1 to 6 do
    ignore (Online.Prefix_opt.step engine)
  done;
  let words = minor_words (fun () -> ignore (Online.Prefix_opt.step engine)) in
  checkb
    (Printf.sprintf "Prefix_opt.step at slot 6: %.0f words <= %.0f" words step_ceiling)
    true (words <= step_ceiling)

(* Building a large-fleet layer's dispatch pieces allocates nothing:
   both types' costs are power curves, so every entry of both axes'
   tables, the zero-count ones included, is built from unboxed kernel
   constants.  A whole layer fill through a warm context then allocates
   nothing either, pieces and cells together; re-aiming the context at
   the next slot's layer boxes only the load and capacity it hands each
   axis's table. *)
let test_layer_pieces_allocate_nothing () =
  let inst = Sim.Scenarios.large_fleet () in
  let grid = Offline.Dp.dense_grids inst 0 in
  let d = Offline.Grid.dim grid in
  let axes = Array.init d (Offline.Grid.axis_values grid) in
  let tables = Array.map (fun a -> Convex.Dispatch.table (Array.length a)) axes in
  let load = inst.Model.Instance.load.(6) in
  let aim () =
    Array.iteri
      (fun j t ->
        Convex.Dispatch.table_aim t
          (inst.Model.Instance.cost ~time:6 ~typ:j)
          ~load ~cap:inst.Model.Instance.types.(j).Model.Server_type.cap)
      tables
  in
  let build () =
    for j = 0 to d - 1 do
      for i = 0 to Array.length axes.(j) - 1 do
        Convex.Dispatch.table_build tables.(j) i axes.(j).(i)
      done
    done
  in
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  aim ();
  build ();
  aim ();
  checkf 0. "words to build both axes' pieces" 0. (minor_words build);
  let ctx = Model.Cost.line_ctx ~axes in
  let table = Array.make (Offline.Grid.size grid) nan in
  let len = Array.length axes.(d - 1) in
  let fill time =
    Model.Cost.line_layer ctx inst ~time;
    Array.fill table 0 (Array.length table) nan;
    let pos = Array.make (d - 1) 0 in
    let words =
      minor_words (fun () ->
          for k = 0 to (Offline.Grid.size grid / len) - 1 do
            Model.Cost.fill_line ~ctx ~table ~rank0:(k * len) ~pos;
            Offline.Grid.next_line grid pos
          done)
    in
    Model.Cost.line_flush ctx;
    words
  in
  ignore (fill 5);
  checkf 0. "words of a warm layer fill, its pieces built" 0. (fill 6);
  let row = Array.make (Offline.Grid.size grid) 0. in
  Offline.Dp.fill_row inst grid ~time:6 row;
  checkb "the warm fill has fill_row's bits" true
    (Array.for_all2 (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) table row)

(* The online fill's exact work.  A large-fleet session fed 192 slots
   adds at most [max_solves] to [dispatch.calls]: [Prefix_opt.step]
   solves a state's dispatch problem only while its line can still hold
   a state some prefix uses, so work counts, which repeat exactly, pin
   the saving with no timing noise.  Filling every state, as the engine
   did before it pruned dominated states, made 318,923 solves here;
   proving a line's tail with the one multiplier of the cell the proof
   started from, before proofs refitted their bound, made 134,743.
   The session must still decide exactly as a full fill built here
   from the offline kernels: per slot, [Dp.fill_row] over every state,
   the fused ramp, and the first strict minimum, fed to the same
   algorithm A stepper. *)
let full_fill_alg_a inst =
  let folded = Model.Instance.fold_switching inst in
  let grid = Offline.Grid.dense (Model.Instance.counts folded) in
  let betas =
    Array.map (fun st -> st.Model.Server_type.switching_cost) folded.Model.Instance.types
  in
  let n = Offline.Grid.size grid in
  let arrival = Offline.Plane.create n in
  Offline.Plane.fill_range arrival ~off:0 ~len:n infinity;
  let zero = Model.Config.zero (Offline.Grid.dim grid) in
  Bigarray.Array1.set arrival (Option.get (Offline.Grid.index_of grid zero)) 0.;
  let ops = Array.make n 0. in
  let stepper = Online.Stepper.alg_a inst in
  Array.init (Model.Instance.horizon inst) (fun time ->
      Offline.Dp.fill_row folded grid ~time ops;
      Offline.Transform.ramp_grid_plane ~ops ~grid ~betas arrival ~off:0;
      let lo = ref 0 in
      for idx = 1 to n - 1 do
        if Bigarray.Array1.get arrival idx < Bigarray.Array1.get arrival !lo then lo := idx
      done;
      Online.Stepper.step stepper ~time ~hat:(Offline.Grid.config_at grid !lo))

let test_online_fill_work () =
  let max_solves = 88_643 in
  let horizon = 192 in
  let inst = Sim.Scenarios.large_fleet ~horizon () in
  let types = inst.Model.Instance.types in
  let fns = Array.mapi (fun typ _ -> inst.Model.Instance.cost ~time:0 ~typ) types in
  let session = Online.Streaming.alg_a ~max_horizon:horizon ~types ~fns () in
  let calls = Option.get (Obs.Counter.find "dispatch.calls") in
  let before = Obs.Counter.value calls in
  let decided = Array.map (Online.Streaming.feed session) inst.Model.Instance.load in
  let solves = Obs.Counter.value calls - before in
  checkb
    (Printf.sprintf "%d dispatch solves <= %d" solves max_solves)
    true (solves <= max_solves);
  checkb "decisions = full fill" true (decided = full_fill_alg_a inst)

(* --- Algorithm A --- *)

let simple_static ?(beta = 5.) ?(idle = 1.) ?(count = 5) ~load () =
  let types = [| st ~count ~switching_cost:beta ~cap:1. () |] in
  let fns = [| Convex.Fn.shift_idle idle (Convex.Fn.power ~idle:0. ~coef:1. ~expo:2.) |] in
  Model.Instance.make_static ~types ~load ~fns ()

(* The timer of type 0 that the stepper runs. *)
let test_alg_a_runtime_value () =
  let timer inst = (Online.Stepper.runtimes (Online.Stepper.alg_a inst)).(0) in
  let inst = simple_static ~beta:5. ~idle:1. ~load:[| 1. |] () in
  checkb "tbar = 5" true (timer inst = Some 5);
  let inst2 = simple_static ~beta:4.5 ~idle:1. ~load:[| 1. |] () in
  checkb "tbar = ceil(4.5)" true (timer inst2 = Some 5);
  let inst3 = simple_static ~beta:5. ~idle:0. ~load:[| 1. |] () in
  checkb "free idling -> never power down" true (timer inst3 = None)

let test_alg_a_dominates_prefix_opt () =
  (* The defining invariant: x^A_{t,j} >= x^t_{t,j}. *)
  let inst = Sim.Scenarios.cpu_gpu ~horizon:20 () in
  let r = Online.Alg_a.run inst in
  Array.iteri
    (fun t hat ->
      checkb (Printf.sprintf "dominates at %d" t) true
        (Model.Config.dominates r.Online.Alg_a.schedule.(t) hat))
    r.Online.Alg_a.prefix_last

let test_alg_a_feasible () =
  let inst = Sim.Scenarios.three_tier ~horizon:30 () in
  let r = Online.Alg_a.run inst in
  checkb "feasible" true (Model.Schedule.feasible inst r.Online.Alg_a.schedule)

let test_alg_a_ski_rental_powerdown () =
  (* One burst: the server stays up exactly tbar = 3 slots, then leaves. *)
  let inst = simple_static ~beta:3. ~idle:1. ~count:1 ~load:[| 1.; 0.; 0.; 0.; 0.; 0. |] () in
  let r = Online.Alg_a.run inst in
  Alcotest.(check (array int)) "runs exactly tbar slots" [| 1; 1; 1; 0; 0; 0 |]
    (Model.Schedule.column r.Online.Alg_a.schedule ~typ:0)

let test_alg_a_never_powers_down_free_idle () =
  let inst = simple_static ~beta:3. ~idle:0. ~count:1 ~load:[| 1.; 0.; 0.; 0. |] () in
  let r = Online.Alg_a.run inst in
  Alcotest.(check (array int)) "stays up" [| 1; 1; 1; 1 |]
    (Model.Schedule.column r.Online.Alg_a.schedule ~typ:0)

let test_alg_a_figure1_shape () =
  (* Figure 1's mechanism with tbar = 5: each power-up extends the stay by
     exactly 5 slots from its own slot, so a second burst 3 slots after
     the first keeps one server up until burst2 + 5. *)
  let load = [| 1.; 0.; 0.; 1.; 0.; 0.; 0.; 0.; 0.; 0. |] in
  let inst = simple_static ~beta:5. ~idle:1. ~count:2 ~load () in
  let r = Online.Alg_a.run inst in
  let col = Model.Schedule.column r.Online.Alg_a.schedule ~typ:0 in
  (* First server: slots 0..4.  Optimal prefix at slot 3 reuses the still
     running server, so no second power-up happens unless demand needs 2. *)
  checki "active at 0" 1 col.(0);
  checki "still active at 4" 1 col.(4);
  checki "down at 5 or reused" 0 col.(8)

let test_alg_a_blocks_cover_powerups () =
  let inst = Sim.Scenarios.cpu_gpu ~horizon:24 () in
  let r = Online.Alg_a.run inst in
  (* Events are chronological with positive counts, and per type the total
     powered up covers the peak of the schedule column (every active
     server stems from some power-up event). *)
  let last_time = ref (-1) in
  List.iter
    (fun (time, _, count) ->
      checkb "chronological" true (time >= !last_time);
      last_time := time;
      checkb "positive count" true (count > 0))
    r.Online.Alg_a.power_ups;
  for typ = 0 to Model.Instance.num_types inst - 1 do
    let total =
      List.fold_left
        (fun acc (_, j, c) -> if j = typ then acc + c else acc)
        0 r.Online.Alg_a.power_ups
    in
    let peak = Array.fold_left max 0 (Model.Schedule.column r.Online.Alg_a.schedule ~typ) in
    checkb "ups cover the peak" true (total >= peak)
  done

let test_alg_a_lemma4_load_dependent () =
  (* Lemma 4 fixes one job split (the one optimal for X^t) and shows that
     spreading the same per-type volume over the >= servers of X^A cannot
     increase the load-dependent cost:
     x (f(v/x) - f(0)) is non-increasing in x for convex f. *)
  let inst = Sim.Scenarios.cpu_gpu ~horizon:16 () in
  let r = Online.Alg_a.run inst in
  Array.iteri
    (fun t hat ->
      match Model.Cost.operating_split inst ~time:t hat with
      | None -> Alcotest.fail "optimal prefix config must be feasible"
      | Some (split, _) ->
          for typ = 0 to 1 do
            let lambda = inst.Model.Instance.load.(t) in
            let volume = lambda *. split.(typ) in
            let f = inst.Model.Instance.cost ~time:t ~typ in
            let part x =
              if x = 0 then 0.
              else
                let xf = float_of_int x in
                xf *. (Convex.Fn.eval f (volume /. xf) -. Convex.Fn.eval f 0.)
            in
            checkb
              (Printf.sprintf "L at t=%d j=%d" t typ)
              true
              (part r.Online.Alg_a.schedule.(t).(typ) <= part hat.(typ) +. 1e-6)
          done)
    r.Online.Alg_a.prefix_last

let test_alg_a_rejects_time_dependent () =
  let inst = Sim.Scenarios.time_varying_costs () in
  checkb "raises" true
    (try ignore (Online.Alg_a.run inst); false with Invalid_argument _ -> true)

let test_alg_a_competitive_on_scenario () =
  let inst = Sim.Scenarios.cpu_gpu ~horizon:24 () in
  let r = Online.Alg_a.run inst in
  let opt = Online.Harness.opt_cost inst in
  let cost = Model.Cost.schedule inst r.Online.Alg_a.schedule in
  let bound = Online.Harness.competitive_bound inst ~algorithm:`A in
  checkb "within 2d+1" true (cost <= (bound *. opt) +. 1e-6)

let test_alg_a_reduced_grid_mode () =
  (* The scalable mode stays feasible and lands near the dense-grid run. *)
  let types =
    [| st ~name:"big-fleet" ~count:100 ~switching_cost:2. ~cap:1. () |]
  in
  let fns = [| Convex.Fn.power ~idle:0.5 ~coef:0.8 ~expo:2. |] in
  let load = [| 20.; 80.; 95.; 40.; 5.; 0.; 30.; 70. |] in
  let inst = Model.Instance.make_static ~types ~load ~fns () in
  let dense = Online.Alg_a.run inst in
  let grid = Offline.Grid.power ~gamma:1.5 [| 100 |] in
  let reduced = Online.Alg_a.run ~grid inst in
  checkb "feasible" true (Model.Schedule.feasible inst reduced.Online.Alg_a.schedule);
  let cd = Model.Cost.schedule inst dense.Online.Alg_a.schedule in
  let cr = Model.Cost.schedule inst reduced.Online.Alg_a.schedule in
  checkb "within 1.5x of the dense run" true (cr <= 1.5 *. cd)

let test_prefix_grid_dimension_mismatch () =
  let inst = Sim.Scenarios.cpu_gpu ~horizon:4 () in
  let grid = Offline.Grid.dense [| 3 |] in
  checkb "raises" true
    (try ignore (Online.Prefix_opt.create ~grid inst); false
     with Invalid_argument _ -> true)

(* --- Algorithm B --- *)

let dynamic_idle_instance ~beta ~idles ~load =
  (* Single type; idle cost of slot t is idles.(t) (constant functions,
     so all cost is idle cost). *)
  let horizon = Array.length idles in
  assert (Array.length load = horizon);
  let types = [| st ~count:3 ~switching_cost:beta ~cap:1. () |] in
  let fns = Array.map Convex.Fn.const idles in
  Model.Instance.make ~types ~load ~cost:(fun ~time ~typ:_ -> fns.(time)) ()

let test_alg_b_figure3_powerdowns () =
  (* Figure 3's bookkeeping, beta = 6: idle costs (paper slots 1..)
     l = [2; 1; 4; 1; 2; ...].  Servers powered up at paper slots 1 and 2
     are both shut down at paper slot 5 (W_5 = {1, 2}). *)
  let idles = [| 2.; 1.; 4.; 1.; 2.; 1.; 1.; 1. |] in
  let load = [| 2.; 3.; 0.; 0.; 0.; 0.; 0.; 0. |] in
  let inst = dynamic_idle_instance ~beta:6. ~idles ~load in
  let r = Online.Alg_b.run inst in
  (* Power-ups: 2 servers at code slot 0, 1 more at code slot 1. *)
  checkb "power-up at slot 0" true (List.mem (0, 0, 2) r.Online.Alg_b.power_ups);
  checkb "power-up at slot 1" true (List.mem (1, 0, 1) r.Online.Alg_b.power_ups);
  (* Both groups leave at code slot 4 (paper slot 5). *)
  let downs_at_4 =
    List.filter (fun (t, _, _) -> t = 4) r.Online.Alg_b.power_downs
    |> List.fold_left (fun acc (_, _, c) -> acc + c) 0
  in
  checki "W_5 empties both groups" 3 downs_at_4;
  Alcotest.(check (array int)) "column" [| 2; 3; 3; 3; 0; 0; 0; 0 |]
    (Model.Schedule.column r.Online.Alg_b.schedule ~typ:0)

let test_alg_b_runtime_excludes_own_slot () =
  (* The idle cost of the power-up slot itself must not count: with
     l = [100; 1; 1; ...] and beta = 2.5 a server powered at slot 0 stays
     through slots 1 and 2 (1 + 1 <= 2.5) and leaves at slot 3. *)
  let idles = [| 100.; 1.; 1.; 1.; 1. |] in
  let load = [| 1.; 0.; 0.; 0.; 0. |] in
  let inst = dynamic_idle_instance ~beta:2.5 ~idles ~load in
  let r = Online.Alg_b.run inst in
  Alcotest.(check (array int)) "own slot free" [| 1; 1; 1; 0; 0 |]
    (Model.Schedule.column r.Online.Alg_b.schedule ~typ:0)

let test_alg_b_dominates_prefix_opt () =
  let inst = Sim.Scenarios.time_varying_costs ~horizon:24 () in
  let r = Online.Alg_b.run inst in
  Array.iteri
    (fun t hat ->
      checkb (Printf.sprintf "dominates at %d" t) true
        (Model.Config.dominates r.Online.Alg_b.schedule.(t) hat))
    r.Online.Alg_b.prefix_last

let test_alg_b_feasible () =
  let inst = Sim.Scenarios.time_varying_costs ~horizon:24 () in
  let r = Online.Alg_b.run inst in
  checkb "feasible" true (Model.Schedule.feasible inst r.Online.Alg_b.schedule)

let test_alg_b_updown_balance () =
  let inst = Sim.Scenarios.time_varying_costs ~horizon:24 () in
  let r = Online.Alg_b.run inst in
  let ups = List.fold_left (fun acc (_, _, c) -> acc + c) 0 r.Online.Alg_b.power_ups in
  let downs = List.fold_left (fun acc (_, _, c) -> acc + c) 0 r.Online.Alg_b.power_downs in
  checkb "downs never exceed ups" true (downs <= ups)

let test_alg_b_requires_positive_beta () =
  let types = [| st ~count:1 ~switching_cost:0. ~cap:1. () |] in
  let inst =
    Model.Instance.make ~types ~load:[| 1. |]
      ~cost:(fun ~time:_ ~typ:_ -> Convex.Fn.const 1.)
      ()
  in
  checkb "raises" true
    (try ignore (Online.Alg_b.run inst); false with Invalid_argument _ -> true)

let test_alg_b_theorem13_bound () =
  let inst = Sim.Scenarios.time_varying_costs ~horizon:20 () in
  let r = Online.Alg_b.run inst in
  let opt = Online.Harness.opt_cost inst in
  let cost = Model.Cost.schedule inst r.Online.Alg_b.schedule in
  let bound = Online.Harness.competitive_bound inst ~algorithm:`B in
  checkb "within 2d+1+c(I)" true (cost <= (bound *. opt) +. 1e-6)

let test_c_of_instance () =
  let idles = [| 2.; 8.; 4. |] in
  let inst = dynamic_idle_instance ~beta:4. ~idles ~load:[| 0.; 0.; 0. |] in
  (* max l / beta = 8 / 4 = 2, single type. *)
  checkf 1e-9 "c(I)" 2. (Online.Alg_b.c_of_instance inst)

(* --- Algorithm C --- *)

let test_alg_c_parts_formula () =
  let idles = [| 2.; 8.; 4. |] in
  let inst = dynamic_idle_instance ~beta:4. ~idles ~load:[| 0.; 0.; 0. |] in
  (* d = 1, eps = 0.5: n~_t = ceil(2 * l_t / 4). *)
  checki "slot 0" 1 (Online.Alg_c.parts_of_slot ~eps:0.5 inst ~time:0);
  checki "slot 1" 4 (Online.Alg_c.parts_of_slot ~eps:0.5 inst ~time:1);
  checki "slot 2" 2 (Online.Alg_c.parts_of_slot ~eps:0.5 inst ~time:2)

let test_alg_c_refined_constant_small () =
  (* Eq. (16): c(I~) <= eps. *)
  let inst = Sim.Scenarios.time_varying_costs ~horizon:12 () in
  List.iter
    (fun eps ->
      let r = Online.Alg_c.run ~eps inst in
      checkb
        (Printf.sprintf "c(I~) = %f <= eps = %f" r.Online.Alg_c.c_refined eps)
        true
        (r.Online.Alg_c.c_refined <= eps +. 1e-9))
    [ 1.; 0.5; 0.25 ]

let test_alg_c_lemma14_cost_not_increased () =
  let inst = Sim.Scenarios.time_varying_costs ~horizon:12 () in
  let r = Online.Alg_c.run ~eps:0.5 inst in
  let c_on_original = Model.Cost.schedule inst r.Online.Alg_c.schedule in
  let b_on_refined = Model.Cost.schedule r.Online.Alg_c.refined r.Online.Alg_c.sub_schedule in
  checkb "Lemma 14" true (c_on_original <= b_on_refined +. 1e-6)

let test_alg_c_feasible () =
  let inst = Sim.Scenarios.time_varying_costs ~horizon:12 () in
  let r = Online.Alg_c.run ~eps:0.5 inst in
  checkb "feasible" true (Model.Schedule.feasible inst r.Online.Alg_c.schedule)

let test_alg_c_configs_from_sub_schedule () =
  let inst = Sim.Scenarios.time_varying_costs ~horizon:8 () in
  let r = Online.Alg_c.run ~eps:0.5 inst in
  (* Each x^C_t appears among the sub-slot configurations of U(t). *)
  let u = ref 0 in
  Array.iteri
    (fun t parts ->
      let candidates = Array.sub r.Online.Alg_c.sub_schedule !u parts in
      checkb
        (Printf.sprintf "x^C_%d from U(%d)" t t)
        true
        (Array.exists (fun x -> Model.Config.equal x r.Online.Alg_c.schedule.(t)) candidates);
      u := !u + parts)
    r.Online.Alg_c.parts

let test_alg_c_theorem15_bound () =
  let inst = Sim.Scenarios.time_varying_costs ~horizon:16 () in
  let opt = Online.Harness.opt_cost inst in
  List.iter
    (fun eps ->
      let r = Online.Alg_c.run ~eps inst in
      let cost = Model.Cost.schedule inst r.Online.Alg_c.schedule in
      let bound = (2. *. 2.) +. 1. +. eps in
      checkb "within 2d+1+eps" true (cost <= (bound *. opt) +. 1e-6))
    [ 1.; 0.5 ]

let test_alg_c_rejects_bad_eps () =
  let inst = Sim.Scenarios.time_varying_costs ~horizon:4 () in
  checkb "raises" true
    (try ignore (Online.Alg_c.run ~eps:0. inst); false with Invalid_argument _ -> true)

(* --- Edge cases shared by the online algorithms --- *)

let test_all_zero_loads () =
  (* Nothing arrives: the optimal prefix is empty every slot, nothing is
     ever powered up, cost 0. *)
  let inst = simple_static ~load:(Array.make 6 0.) () in
  let a = Online.Alg_a.run inst in
  checkf 0. "A cost" 0. (Model.Cost.schedule inst a.Online.Alg_a.schedule);
  Alcotest.(check (array int)) "never powers up" (Array.make 6 0)
    (Model.Schedule.column a.Online.Alg_a.schedule ~typ:0);
  let b = Online.Alg_b.run inst in
  checkf 0. "B cost" 0. (Model.Cost.schedule inst b.Online.Alg_b.schedule)

let test_alg_c_on_time_independent () =
  (* C is legal (if pointless) on time-independent instances: the
     refinement just divides each slot by a constant. *)
  let inst = Sim.Scenarios.cpu_gpu ~horizon:8 () in
  let r = Online.Alg_c.run ~eps:0.5 inst in
  checkb "feasible" true (Model.Schedule.feasible inst r.Online.Alg_c.schedule);
  let opt = Online.Harness.opt_cost inst in
  checkb "within 2d+1+eps" true
    (Model.Cost.schedule inst r.Online.Alg_c.schedule <= (5.5 *. opt) +. 1e-6)

(* --- Streaming --- *)

let test_streaming_matches_batch_a () =
  (* Feeding loads one by one must reproduce the batch run exactly. *)
  let inst = Sim.Scenarios.cpu_gpu ~horizon:20 () in
  let batch = (Online.Alg_a.run inst).Online.Alg_a.schedule in
  let session =
    Online.Streaming.alg_a ~max_horizon:32 ~types:inst.Model.Instance.types
      ~fns:(Array.init 2 (fun typ -> inst.Model.Instance.cost ~time:0 ~typ))
      ()
  in
  Array.iteri
    (fun t load ->
      let x = Online.Streaming.feed session load in
      checkb (Printf.sprintf "slot %d identical" t) true (Model.Config.equal x batch.(t)))
    inst.Model.Instance.load;
  checki "fed" 20 (Online.Streaming.fed session)

let test_streaming_matches_batch_b () =
  let inst = Sim.Scenarios.time_varying_costs ~horizon:16 () in
  let batch = (Online.Alg_b.run inst).Online.Alg_b.schedule in
  let session =
    Online.Streaming.alg_b ~max_horizon:16 ~types:inst.Model.Instance.types
      ~cost:(fun ~time ~typ -> inst.Model.Instance.cost ~time ~typ)
      ()
  in
  Array.iteri
    (fun t load ->
      let x = Online.Streaming.feed session load in
      checkb (Printf.sprintf "slot %d identical" t) true (Model.Config.equal x batch.(t)))
    inst.Model.Instance.load

let test_streaming_validation () =
  let types = [| st ~count:2 ~switching_cost:1. ~cap:1. () |] in
  let fns = [| Convex.Fn.const 1. |] in
  let session = Online.Streaming.alg_a ~max_horizon:2 ~types ~fns () in
  checkb "negative volume" true
    (try ignore (Online.Streaming.feed session (-1.)); false
     with Invalid_argument _ -> true);
  checkb "over capacity" true
    (try ignore (Online.Streaming.feed session 5.); false
     with Invalid_argument _ -> true);
  ignore (Online.Streaming.feed session 1.);
  ignore (Online.Streaming.feed session 1.);
  checkb "horizon exhausted" true
    (try ignore (Online.Streaming.feed session 1.); false
     with Invalid_argument _ -> true)

let test_streaming_config_tracking () =
  let types = [| st ~count:2 ~switching_cost:3. ~cap:1. () |] in
  let fns = [| Convex.Fn.const 1. |] in
  let session = Online.Streaming.alg_a ~types ~fns () in
  Alcotest.(check (array int)) "starts all-off" [| 0 |] (Online.Streaming.config session);
  let x = Online.Streaming.feed session 2. in
  Alcotest.(check (array int)) "powers up for the load" [| 2 |] x;
  Alcotest.(check (array int)) "config tracks" x (Online.Streaming.config session)

(* --- Baselines --- *)

let test_always_on_constant () =
  let inst = Sim.Scenarios.cpu_gpu ~horizon:12 () in
  let s = Online.Baselines.always_on inst in
  checkb "feasible" true (Model.Schedule.feasible inst s);
  let first = s.(0) in
  Array.iter (fun x -> checkb "constant" true (Model.Config.equal x first)) s

let test_follow_demand_is_pointwise_argmin () =
  let inst = Sim.Scenarios.cpu_gpu ~horizon:8 () in
  let s = Online.Baselines.follow_demand inst in
  checkb "feasible" true (Model.Schedule.feasible inst s);
  let grid = Offline.Grid.dense (Model.Instance.counts inst) in
  Array.iteri
    (fun t x ->
      let g = Model.Cost.operating inst ~time:t x in
      Offline.Grid.iter grid (fun _ y ->
          checkb "argmin" true (g <= Model.Cost.operating inst ~time:t y +. 1e-6)))
    s

let test_receding_horizon_full_window_is_optimal () =
  let inst = Sim.Scenarios.homogeneous ~horizon:10 () in
  let s = Online.Baselines.receding_horizon ~window:10 inst in
  let opt = Online.Harness.opt_cost inst in
  (* With the whole horizon visible the first plan is already optimal and
     re-planning from an optimal prefix stays optimal. *)
  checkb "optimal with full lookahead" true
    (Model.Cost.schedule inst s <= opt +. 1e-6)

let test_receding_horizon_feasible () =
  let inst = Sim.Scenarios.three_tier ~horizon:20 () in
  let s = Online.Baselines.receding_horizon ~window:3 inst in
  checkb "feasible" true (Model.Schedule.feasible inst s)

let test_lcp_requires_d1 () =
  let inst = Sim.Scenarios.cpu_gpu ~horizon:4 () in
  checkb "raises" true
    (try ignore (Online.Baselines.lcp_1d inst); false with Invalid_argument _ -> true)

let test_lcp_feasible_and_reasonable () =
  let inst = Sim.Scenarios.homogeneous ~horizon:30 () in
  let s = Online.Baselines.lcp_1d inst in
  checkb "feasible" true (Model.Schedule.feasible inst s);
  let opt = Online.Harness.opt_cost inst in
  (* LCP is 3-competitive in the fractional setting; allow slack here but
     catch gross regressions. *)
  checkb "within 4x OPT on this trace" true (Model.Cost.schedule inst s <= 4. *. opt)

(* --- Adversary --- *)

let test_chasing_exponential_separation () =
  let o = Online.Adversary.chasing_lower_bound ~d:8 in
  checki "steps" 255 o.Online.Adversary.steps;
  checkb "offline at most d" true (o.Online.Adversary.offline_cost <= 8.);
  checkb "ratio beats poly(d)" true (o.Online.Adversary.ratio > 16.)

let test_chasing_monotone_in_d () =
  let r d = (Online.Adversary.chasing_lower_bound ~d).Online.Adversary.ratio in
  checkb "grows" true (r 4 < r 6 && r 6 < r 10)

let test_reactive_adversary_forces_two () =
  (* The adaptive ski-rental adversary drives A towards the d = 1 lower
     bound 2 as beta/idle grows. *)
  let r1 = (Online.Adversary.reactive_a ~rounds:6 ~beta:4. ~idle:1. ()).Online.Adversary.forced_ratio in
  let r2 = (Online.Adversary.reactive_a ~rounds:10 ~beta:10. ~idle:0.5 ()).Online.Adversary.forced_ratio in
  checkb "grows with beta/idle" true (r2 > r1);
  checkb "approaches 2" true (r2 > 1.85);
  checkb "never exceeds the guarantee" true (r2 <= 3. +. 1e-9)

let test_reactive_adversary_instance_valid () =
  let o = Online.Adversary.reactive_a ~rounds:4 ~beta:3. ~idle:1. () in
  checkb "feasible loads" true (Model.Instance.feasible_load o.Online.Adversary.instance);
  checkb "ratio consistent" true
    (Float.abs (o.Online.Adversary.forced_ratio -. (o.Online.Adversary.alg_cost /. o.Online.Adversary.opt_cost)) < 1e-9);
  checkb "bad args" true
    (try ignore (Online.Adversary.reactive_a ~beta:0. ~idle:1. ()); false
     with Invalid_argument _ -> true)

let test_chasing_bad_d () =
  checkb "raises" true
    (try ignore (Online.Adversary.chasing_lower_bound ~d:0); false
     with Invalid_argument _ -> true)

(* --- Harness --- *)

let test_harness_evaluate () =
  let inst = Sim.Scenarios.homogeneous ~horizon:10 () in
  let opt_result = Offline.Dp.solve_optimal inst in
  let opt = opt_result.Offline.Dp.cost in
  let evals =
    Online.Harness.evaluate inst ~opt
      [ ("opt", opt_result.Offline.Dp.schedule);
        ("a", (Online.Alg_a.run inst).Online.Alg_a.schedule) ]
  in
  (match evals with
  | [ e_opt; e_a ] ->
      checkb "opt ratio 1" true (Util.Float_cmp.close ~eps:1e-6 e_opt.Online.Harness.ratio 1.);
      checkb "a ratio >= 1" true (e_a.Online.Harness.ratio >= 1. -. 1e-9);
      checkb "both feasible" true (e_opt.Online.Harness.feasible && e_a.Online.Harness.feasible)
  | _ -> Alcotest.fail "two evaluations")

let test_harness_run_suite_static () =
  let inst = Sim.Scenarios.homogeneous ~horizon:10 () in
  let named = Online.Harness.run_suite inst in
  let names = List.map fst named in
  checkb "has OPT" true (List.mem "OPT" names);
  checkb "has alg-A" true (List.mem "alg-A" names);
  checkb "has lcp for d=1" true (List.mem "lcp" names)

let test_harness_run_suite_dynamic () =
  let inst = Sim.Scenarios.time_varying_costs ~horizon:10 () in
  let named = Online.Harness.run_suite ~include_baselines:false inst in
  let names = List.map fst named in
  checkb "has alg-B" true (List.mem "alg-B" names);
  checkb "has alg-C" true (List.exists (fun n -> String.length n >= 5 && String.sub n 0 5 = "alg-C") names);
  checkb "no baselines" true (not (List.mem "always-on" names))

let test_competitive_bounds () =
  let li = Sim.Scenarios.load_independent ~d:2 ~horizon:4 ~seed:1 in
  checkf 1e-9 "Corollary 9: 2d" 4. (Online.Harness.competitive_bound li ~algorithm:`A);
  let general = Sim.Scenarios.cpu_gpu ~horizon:4 () in
  checkf 1e-9 "Theorem 8: 2d+1" 5. (Online.Harness.competitive_bound general ~algorithm:`A);
  checkf 1e-9 "Theorem 15: 2d+1+eps" 5.25
    (Online.Harness.competitive_bound general ~algorithm:(`C 0.25));
  checkf 1e-9 "det2d: 2d when time-independent" 4.
    (Online.Harness.competitive_bound li ~algorithm:`Det2d);
  let homog = Sim.Scenarios.homogeneous ~horizon:4 () in
  checkf 1e-9 "homog: d-free 3 for convex time-independent" 3.
    (Online.Harness.competitive_bound homog ~algorithm:`Homog)

let test_harness_ratio_all_idle () =
  (* The canonical ratio is defined (and nan-free) on all-idle traces
     where OPT = 0: matching the zero optimum is 1-competitive, paying
     anything is infinity. *)
  checkf 1e-9 "0/0 = 1" 1. (Online.Harness.ratio ~cost:0. ~opt:0.);
  checkb "paying against a zero OPT = infinity" true
    (Online.Harness.ratio ~cost:1. ~opt:0. = infinity);
  checkb "never nan" true
    (not (Float.is_nan (Online.Harness.ratio ~cost:0. ~opt:0.)));
  checkf 1e-9 "ordinary division untouched" 1.5 (Online.Harness.ratio ~cost:3. ~opt:2.);
  (* End to end: free idling and an all-zero trace make OPT exactly 0;
     algorithm B never powers up, so the reported ratio must be 1. *)
  let types = [| st ~count:2 ~switching_cost:3. ~cap:1. () |] in
  let inst =
    Model.Instance.make_static ~types ~load:(Array.make 6 0.)
      ~fns:[| Convex.Fn.const 0. |] ()
  in
  let opt = Online.Harness.opt_cost inst in
  checkf 1e-9 "OPT = 0" 0. opt;
  let cost = Model.Cost.schedule inst (Online.Alg_b.run inst).Online.Alg_b.schedule in
  checkf 1e-9 "ratio 1.0, not nan" 1. (Online.Harness.ratio ~cost ~opt)

(* --- Sister-paper solver: det2d (arXiv:2107.14672) --- *)

let test_det2d_rejects_load_dependent () =
  let inst = Sim.Scenarios.cpu_gpu ~horizon:4 () in
  checkb "not applicable" false (Online.Alg_det2d.applicable inst);
  checkb "run raises" true
    (try ignore (Online.Alg_det2d.run inst); false with Invalid_argument _ -> true)

let test_det2d_equals_alg_a_time_independent () =
  (* On time-independent load-independent instances the break-even rule
     reproduces A's ceil(beta_j / l_j) timers decision-for-decision. *)
  let inst = Sim.Scenarios.load_independent ~d:2 ~horizon:14 ~seed:5 in
  let a = (Online.Alg_a.run inst).Online.Alg_a.schedule in
  let d2 = (Online.Alg_det2d.run inst).Online.Alg_det2d.schedule in
  Array.iteri
    (fun t x -> checkb (Printf.sprintf "slot %d" t) true (Model.Config.equal x d2.(t)))
    a

let test_det2d_powers_down_at_break_even () =
  (* beta = 2, idle cost 1 per slot (accrued from the slot after the
     power-up): the accumulated idle cost reaches beta at slot 2, so the
     break-even rule retires the group there, one slot before B's
     strict-exceed rule. *)
  let idles = [| 1.; 1.; 1.; 1.; 1.; 1. |] in
  let load = [| 2.; 0.; 0.; 0.; 0.; 0. |] in
  let inst = dynamic_idle_instance ~beta:2. ~idles ~load in
  let first_down downs =
    List.fold_left (fun acc (t, _, _) -> min acc t) max_int downs
  in
  checki "det2d retires at the break-even slot" 2
    (first_down (Online.Alg_det2d.run inst).Online.Alg_det2d.power_downs);
  checki "B waits for a strict exceed" 3
    (first_down (Online.Alg_b.run inst).Online.Alg_b.power_downs)

let test_det2d_bound_on_scenario () =
  let inst = Sim.Scenarios.spot_market ~horizon:24 () in
  checkb "applicable to spot prices" true (Online.Alg_det2d.applicable inst);
  let r = Online.Alg_det2d.run inst in
  checkb "feasible" true (Model.Schedule.feasible inst r.Online.Alg_det2d.schedule);
  let ratio =
    Online.Harness.ratio
      ~cost:(Model.Cost.schedule inst r.Online.Alg_det2d.schedule)
      ~opt:(Online.Harness.opt_cost inst)
  in
  let bound = Online.Harness.competitive_bound inst ~algorithm:`Det2d in
  checkb "within 2d + c(I)" true (ratio <= bound +. 1e-6)

let test_streaming_matches_batch_det2d () =
  let inst = Sim.Scenarios.spot_market ~horizon:16 () in
  let batch = (Online.Alg_det2d.run inst).Online.Alg_det2d.schedule in
  let session =
    Online.Streaming.det2d ~max_horizon:16 ~types:inst.Model.Instance.types
      ~cost:(fun ~time ~typ -> inst.Model.Instance.cost ~time ~typ)
      ()
  in
  Array.iteri
    (fun t load ->
      let x = Online.Streaming.feed session load in
      checkb (Printf.sprintf "slot %d identical" t) true (Model.Config.equal x batch.(t)))
    inst.Model.Instance.load

(* --- Sister-paper solver: pooled homogeneous (arXiv:1807.05112) --- *)

let coinciding_instance ~counts ~load =
  (* All types share beta, cap and the (physically identical) cost
     function — the pooled rule's habitat. *)
  let fn = Convex.Fn.shift_idle 0.5 (Convex.Fn.power ~idle:0. ~coef:1. ~expo:2.) in
  let types =
    Array.map (fun c -> st ~count:c ~switching_cost:3. ~cap:1. ()) counts
  in
  Model.Instance.make_static ~types ~load ~fns:(Array.make (Array.length counts) fn) ()

let test_homog_rejects_non_coinciding () =
  let inst = Sim.Scenarios.cpu_gpu ~horizon:4 () in
  checkb "not applicable" false (Online.Alg_homog.applicable inst);
  checkb "run raises" true
    (try ignore (Online.Alg_homog.run inst); false with Invalid_argument _ -> true)

let test_homog_rejects_size_varying () =
  let types = [| st ~count:3 ~switching_cost:3. ~cap:1. () |] in
  let inst =
    Model.Instance.make
      ~avail:(fun ~time ~typ:_ -> if time = 1 then 2 else 3)
      ~types ~load:[| 1.; 1.; 1. |]
      ~cost:(fun ~time:_ ~typ:_ -> Convex.Fn.const 1.)
      ()
  in
  checkb "size-varying rejected" false (Online.Alg_homog.applicable inst)

let test_homog_canonical_split () =
  (* The per-type split of the pooled total is canonical: type 0 fills
     before type 1 touches a machine. *)
  let load = [| 1.; 4.; 6.; 2.; 0.; 0.; 5.; 1. |] in
  let inst = coinciding_instance ~counts:[| 3; 3 |] ~load in
  let r = Online.Alg_homog.run inst in
  checkb "feasible" true (Model.Schedule.feasible inst r.Online.Alg_homog.schedule);
  Array.iteri
    (fun t x ->
      checkb (Printf.sprintf "slot %d: type 0 first" t) true (x.(1) = 0 || x.(0) = 3))
    r.Online.Alg_homog.schedule

let test_homog_pooling_invariant () =
  (* Two coinciding types of 3 machines behave exactly like one type of
     6: the pooled rule only ever sees the summed count. *)
  let load = [| 1.; 4.; 6.; 2.; 0.; 0.; 5.; 1. |] in
  let split = coinciding_instance ~counts:[| 3; 3 |] ~load in
  let merged = coinciding_instance ~counts:[| 6 |] ~load in
  let rs = Online.Alg_homog.run split and rm = Online.Alg_homog.run merged in
  checkf 1e-9 "same total cost"
    (Model.Cost.schedule merged rm.Online.Alg_homog.schedule)
    (Model.Cost.schedule split rs.Online.Alg_homog.schedule);
  Array.iteri
    (fun t x ->
      checki (Printf.sprintf "slot %d: same pooled total" t)
        rm.Online.Alg_homog.schedule.(t).(0)
        (x.(0) + x.(1)))
    rs.Online.Alg_homog.schedule

let test_homog_bound_on_scenario () =
  let inst = Sim.Scenarios.homogeneous ~horizon:24 () in
  checkb "applicable to d = 1" true (Online.Alg_homog.applicable inst);
  let r = Online.Alg_homog.run inst in
  checkb "feasible" true (Model.Schedule.feasible inst r.Online.Alg_homog.schedule);
  let ratio =
    Online.Harness.ratio
      ~cost:(Model.Cost.schedule inst r.Online.Alg_homog.schedule)
      ~opt:(Online.Harness.opt_cost inst)
  in
  let bound = Online.Harness.competitive_bound inst ~algorithm:`Homog in
  checkb "d-free bound holds" true (bound = 3. && ratio <= bound +. 1e-6)

let test_streaming_matches_batch_homog () =
  let load = [| 1.; 4.; 6.; 2.; 0.; 0.; 5.; 1. |] in
  let inst = coinciding_instance ~counts:[| 3; 3 |] ~load in
  let batch = (Online.Alg_homog.run inst).Online.Alg_homog.schedule in
  let fns =
    Array.init (Model.Instance.num_types inst) (fun j ->
        inst.Model.Instance.cost ~time:0 ~typ:j)
  in
  let session =
    Online.Streaming.homog ~max_horizon:8 ~types:inst.Model.Instance.types ~fns ()
  in
  Array.iteri
    (fun t l ->
      let x = Online.Streaming.feed session l in
      checkb (Printf.sprintf "slot %d identical" t) true (Model.Config.equal x batch.(t)))
    inst.Model.Instance.load

(* --- Cross-solver property sweep (qcheck) ---

   Every stepper family — A, B, det2d, homog — is raced on random
   instances drawn from its own domain.  Instances are derived
   deterministically from a generated integer seed (as in test_props),
   so shrinking walks over seeds and every failure replays. *)

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let mk_prop ?(count = 20) ~name prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count seed_gen prop)

let random_load_independent_dynamic rng =
  (* Constant per-slot cost functions with time-varying prices — the
     det2d domain beyond Scenarios.load_independent's static prices. *)
  let d = 1 + Util.Prng.int rng 2 in
  let horizon = 4 + Util.Prng.int rng 6 in
  let types =
    Array.init d (fun j ->
        st
          ~name:(Printf.sprintf "t%d" j)
          ~count:(1 + Util.Prng.int rng 3)
          ~switching_cost:(0.5 +. Util.Prng.float rng 3.)
          ~cap:(float_of_int (1 + Util.Prng.int rng 2))
          ())
  in
  let capacity =
    Array.fold_left
      (fun acc t ->
        acc +. (float_of_int t.Model.Server_type.count *. t.Model.Server_type.cap))
      0. types
  in
  let fns =
    Array.init horizon (fun _ ->
        Array.init d (fun _ -> Convex.Fn.const (0.1 +. Util.Prng.float rng 1.5)))
  in
  let load = Array.init horizon (fun _ -> Util.Prng.float rng (0.9 *. capacity)) in
  Model.Instance.make ~types ~load ~cost:(fun ~time ~typ -> fns.(time).(typ)) ()

let random_fn rng =
  match Util.Prng.int rng 3 with
  | 0 -> Convex.Fn.const (0.1 +. Util.Prng.float rng 1.5)
  | 1 ->
      Convex.Fn.affine
        ~intercept:(0.1 +. Util.Prng.float rng 1.)
        ~slope:(Util.Prng.float rng 2.)
  | _ ->
      Convex.Fn.power
        ~idle:(0.1 +. Util.Prng.float rng 1.)
        ~coef:(Util.Prng.float rng 2.)
        ~expo:(1. +. Util.Prng.float rng 2.)

let random_coinciding rng =
  let d = 1 + Util.Prng.int rng 2 in
  let count = 1 + Util.Prng.int rng 3 in
  let beta = 0.5 +. Util.Prng.float rng 3. in
  let horizon = 4 + Util.Prng.int rng 6 in
  let fn = random_fn rng in
  let types =
    Array.init d (fun j ->
        st ~name:(Printf.sprintf "t%d" j) ~count ~switching_cost:beta ~cap:1. ())
  in
  let capacity = float_of_int (d * count) in
  let load = Array.init horizon (fun _ -> Util.Prng.float rng (0.9 *. capacity)) in
  Model.Instance.make_static ~types ~load ~fns:(Array.make d fn) ()

type solver_family = {
  fname : string;
  gen : Util.Prng.t -> Model.Instance.t;
  algorithm : [ `A | `B | `C of float | `Rand | `Det2d | `Homog ];
  batch : Model.Instance.t -> Model.Schedule.t;
  session : Model.Instance.t -> Online.Streaming.t;
}

let static_fns inst =
  Array.init (Model.Instance.num_types inst) (fun j ->
      inst.Model.Instance.cost ~time:0 ~typ:j)

let solver_families =
  let horizon inst = Array.length inst.Model.Instance.load in
  [ { fname = "a";
      gen = (fun rng -> Sim.Scenarios.random_static ~rng ~d:(1 + Util.Prng.int rng 2) ~horizon:(4 + Util.Prng.int rng 6) ~max_count:3);
      algorithm = `A;
      batch = (fun i -> (Online.Alg_a.run i).Online.Alg_a.schedule);
      session =
        (fun i ->
          Online.Streaming.alg_a ~max_horizon:(horizon i) ~types:i.Model.Instance.types
            ~fns:(static_fns i) ()) };
    { fname = "b";
      gen = (fun rng -> Sim.Scenarios.random_dynamic ~rng ~d:(1 + Util.Prng.int rng 2) ~horizon:(4 + Util.Prng.int rng 6) ~max_count:3);
      algorithm = `B;
      batch = (fun i -> (Online.Alg_b.run i).Online.Alg_b.schedule);
      session =
        (fun i ->
          Online.Streaming.alg_b ~max_horizon:(horizon i) ~types:i.Model.Instance.types
            ~cost:(fun ~time ~typ -> i.Model.Instance.cost ~time ~typ)
            ()) };
    { fname = "det2d";
      gen = random_load_independent_dynamic;
      algorithm = `Det2d;
      batch = (fun i -> (Online.Alg_det2d.run i).Online.Alg_det2d.schedule);
      session =
        (fun i ->
          Online.Streaming.det2d ~max_horizon:(horizon i) ~types:i.Model.Instance.types
            ~cost:(fun ~time ~typ -> i.Model.Instance.cost ~time ~typ)
            ()) };
    { fname = "homog";
      gen = random_coinciding;
      algorithm = `Homog;
      batch = (fun i -> (Online.Alg_homog.run i).Online.Alg_homog.schedule);
      session =
        (fun i ->
          Online.Streaming.homog ~max_horizon:(horizon i) ~types:i.Model.Instance.types
            ~fns:(static_fns i) ()) }
  ]

let prop_all_solvers_feasible_within_bound seed =
  let rng = Util.Prng.create seed in
  List.for_all
    (fun f ->
      let inst = f.gen rng in
      let s = f.batch inst in
      let ratio =
        Online.Harness.ratio
          ~cost:(Model.Cost.schedule inst s)
          ~opt:(Online.Harness.opt_cost inst)
      in
      Model.Schedule.feasible inst s
      && ratio >= 1. -. 1e-9
      && ratio <= Online.Harness.competitive_bound inst ~algorithm:f.algorithm +. 1e-6)
    solver_families

let prop_checkpoint_resume_bit_identity seed =
  (* Feed half the trace, save, restore into a fresh session, feed the
     rest: every decision must be bit-identical to the batch run, and
     the decisions rebuilt from the restored power events must be the
     batch schedule's first k rows, then all of it. *)
  let rng = Util.Prng.create seed in
  let schedule_equal a b =
    Array.length a = Array.length b && Array.for_all2 Model.Config.equal a b
  in
  List.for_all
    (fun f ->
      let inst = f.gen rng in
      let batch = f.batch inst in
      let loads = inst.Model.Instance.load in
      let k = Array.length loads / 2 in
      let live = f.session inst in
      let prefix_ok = ref true in
      for t = 0 to k - 1 do
        prefix_ok :=
          !prefix_ok && Model.Config.equal (Online.Streaming.feed live loads.(t)) batch.(t)
      done;
      let snap = Online.Streaming.save live in
      let resumed = f.session inst in
      match Online.Streaming.restore resumed snap with
      | Error _ -> false
      | Ok () ->
          let rebuilt_prefix_ok =
            schedule_equal
              (Online.Streaming.decisions resumed ~from_:0)
              (Array.sub batch 0 k)
          in
          let suffix_ok = ref (Online.Streaming.fed resumed = k) in
          for t = k to Array.length loads - 1 do
            suffix_ok :=
              !suffix_ok
              && Model.Config.equal (Online.Streaming.feed resumed loads.(t)) batch.(t)
          done;
          !prefix_ok && rebuilt_prefix_ok && !suffix_ok
          && schedule_equal (Online.Streaming.decisions resumed ~from_:0) batch)
    solver_families

let () =
  Alcotest.run "online"
    [ ( "prefix_opt",
        [ Alcotest.test_case "prefix cost matches offline" `Quick
            test_prefix_cost_matches_offline;
          Alcotest.test_case "last config closes an optimal prefix" `Quick
            test_prefix_last_is_optimal_end;
          Alcotest.test_case "step past horizon raises" `Quick
            test_prefix_step_past_horizon_raises;
          Alcotest.test_case "memory flat in slots" `Quick test_prefix_memory_flat_in_slots;
          Alcotest.test_case "Dp.solve major heap is one layer" `Quick
            test_dp_solve_major_heap_is_one_layer;
          Alcotest.test_case "fill allocation ceiling" `Quick test_fill_allocation_ceiling;
          Alcotest.test_case "layer pieces allocate nothing" `Quick
            test_layer_pieces_allocate_nothing;
          Alcotest.test_case "online fill work (large-fleet, T=192)" `Quick
            test_online_fill_work
        ] );
      ( "alg_a",
        [ Alcotest.test_case "runtime t_j" `Quick test_alg_a_runtime_value;
          Alcotest.test_case "dominates optimal prefix" `Quick test_alg_a_dominates_prefix_opt;
          Alcotest.test_case "feasible" `Quick test_alg_a_feasible;
          Alcotest.test_case "ski-rental power-down" `Quick test_alg_a_ski_rental_powerdown;
          Alcotest.test_case "free idling never powers down" `Quick
            test_alg_a_never_powers_down_free_idle;
          Alcotest.test_case "Figure 1 shape" `Quick test_alg_a_figure1_shape;
          Alcotest.test_case "power-up events consistent" `Quick
            test_alg_a_blocks_cover_powerups;
          Alcotest.test_case "Lemma 4 (load-dependent cost)" `Quick
            test_alg_a_lemma4_load_dependent;
          Alcotest.test_case "rejects time-dependent costs" `Quick
            test_alg_a_rejects_time_dependent;
          Alcotest.test_case "Theorem 8 bound on scenario" `Quick
            test_alg_a_competitive_on_scenario;
          Alcotest.test_case "reduced-grid scalable mode" `Quick test_alg_a_reduced_grid_mode;
          Alcotest.test_case "grid dimension mismatch" `Quick
            test_prefix_grid_dimension_mismatch
        ] );
      ( "alg_b",
        [ Alcotest.test_case "Figure 3 power-downs (W_5 = {1,2})" `Quick
            test_alg_b_figure3_powerdowns;
          Alcotest.test_case "own slot's idle cost excluded" `Quick
            test_alg_b_runtime_excludes_own_slot;
          Alcotest.test_case "dominates optimal prefix" `Quick test_alg_b_dominates_prefix_opt;
          Alcotest.test_case "feasible" `Quick test_alg_b_feasible;
          Alcotest.test_case "up/down balance" `Quick test_alg_b_updown_balance;
          Alcotest.test_case "requires positive beta" `Quick test_alg_b_requires_positive_beta;
          Alcotest.test_case "Theorem 13 bound on scenario" `Quick test_alg_b_theorem13_bound;
          Alcotest.test_case "c(I)" `Quick test_c_of_instance
        ] );
      ( "alg_c",
        [ Alcotest.test_case "sub-slot counts" `Quick test_alg_c_parts_formula;
          Alcotest.test_case "eq. (16): c(I~) <= eps" `Quick test_alg_c_refined_constant_small;
          Alcotest.test_case "Lemma 14: repair does not increase cost" `Quick
            test_alg_c_lemma14_cost_not_increased;
          Alcotest.test_case "feasible" `Quick test_alg_c_feasible;
          Alcotest.test_case "configs come from sub-schedule" `Quick
            test_alg_c_configs_from_sub_schedule;
          Alcotest.test_case "Theorem 15 bound on scenario" `Quick test_alg_c_theorem15_bound;
          Alcotest.test_case "rejects eps <= 0" `Quick test_alg_c_rejects_bad_eps
        ] );
      ( "edge_cases",
        [ Alcotest.test_case "all-zero loads" `Quick test_all_zero_loads;
          Alcotest.test_case "C on a time-independent instance" `Quick
            test_alg_c_on_time_independent
        ] );
      ( "streaming",
        [ Alcotest.test_case "matches batch A decision-for-decision" `Quick
            test_streaming_matches_batch_a;
          Alcotest.test_case "matches batch B decision-for-decision" `Quick
            test_streaming_matches_batch_b;
          Alcotest.test_case "validation" `Quick test_streaming_validation;
          Alcotest.test_case "config tracking" `Quick test_streaming_config_tracking;
          Alcotest.test_case "stepper state flat in slots" `Quick
            test_stepper_state_flat_in_slots;
          Alcotest.test_case "session words after 4,096 slots" `Quick
            test_session_words_after_4096_slots
        ] );
      ( "baselines",
        [ Alcotest.test_case "always-on constant & feasible" `Quick test_always_on_constant;
          Alcotest.test_case "follow-demand is pointwise argmin" `Quick
            test_follow_demand_is_pointwise_argmin;
          Alcotest.test_case "receding horizon, full window = OPT" `Quick
            test_receding_horizon_full_window_is_optimal;
          Alcotest.test_case "receding horizon feasible" `Quick test_receding_horizon_feasible;
          Alcotest.test_case "LCP requires d=1" `Quick test_lcp_requires_d1;
          Alcotest.test_case "LCP feasible and competitive-ish" `Quick
            test_lcp_feasible_and_reasonable
        ] );
      ( "adversary",
        [ Alcotest.test_case "exponential separation" `Quick
            test_chasing_exponential_separation;
          Alcotest.test_case "ratio grows with d" `Quick test_chasing_monotone_in_d;
          Alcotest.test_case "bad d rejected" `Quick test_chasing_bad_d;
          Alcotest.test_case "reactive adversary forces ratio -> 2" `Quick
            test_reactive_adversary_forces_two;
          Alcotest.test_case "reactive adversary instance valid" `Quick
            test_reactive_adversary_instance_valid
        ] );
      ( "det2d",
        [ Alcotest.test_case "rejects load-dependent costs" `Quick
            test_det2d_rejects_load_dependent;
          Alcotest.test_case "equals A on time-independent instances" `Quick
            test_det2d_equals_alg_a_time_independent;
          Alcotest.test_case "powers down at break-even, not strict exceed" `Quick
            test_det2d_powers_down_at_break_even;
          Alcotest.test_case "bound on the spot-market scenario" `Quick
            test_det2d_bound_on_scenario;
          Alcotest.test_case "streaming matches batch" `Quick
            test_streaming_matches_batch_det2d
        ] );
      ( "homog",
        [ Alcotest.test_case "rejects non-coinciding types" `Quick
            test_homog_rejects_non_coinciding;
          Alcotest.test_case "rejects size-varying fleets" `Quick
            test_homog_rejects_size_varying;
          Alcotest.test_case "canonical split (type 0 first)" `Quick
            test_homog_canonical_split;
          Alcotest.test_case "pooling invariant (3+3 = 6)" `Quick
            test_homog_pooling_invariant;
          Alcotest.test_case "d-free bound on the homogeneous scenario" `Quick
            test_homog_bound_on_scenario;
          Alcotest.test_case "streaming matches batch" `Quick
            test_streaming_matches_batch_homog
        ] );
      ( "solver_sweep",
        [ mk_prop ~name:"every solver feasible and within its bound"
            prop_all_solvers_feasible_within_bound;
          mk_prop ~name:"checkpoint/resume bit-identity across solvers"
            prop_checkpoint_resume_bit_identity
        ] );
      ( "harness",
        [ Alcotest.test_case "evaluate" `Quick test_harness_evaluate;
          Alcotest.test_case "run_suite (static)" `Quick test_harness_run_suite_static;
          Alcotest.test_case "run_suite (dynamic)" `Quick test_harness_run_suite_dynamic;
          Alcotest.test_case "bound formulas" `Quick test_competitive_bounds;
          Alcotest.test_case "ratio on all-idle traces (OPT = 0)" `Quick
            test_harness_ratio_all_idle
        ] )
    ]

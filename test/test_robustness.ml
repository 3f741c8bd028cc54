(* Crash/resume and fault-injection tests.

   The contract under test: a checkpoint taken at any slot, written
   through the snapshot container and read back, must leave the resumed
   run decision-for-decision identical to an uninterrupted one; and an
   injected fault must either be absorbed (with the same result) or
   surface as a clean typed error — never silently corrupt a result.

   Instances are derived deterministically from a generated integer
   seed (the [test_props.ml] convention), so qcheck shrinking walks
   over seeds and every failure is replayable.  Failing crash/resume
   cases dump their checkpoint text into [_robustness_artifacts/] for
   CI to upload. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let st = Model.Server_type.make

module Snapshot = Util.Snapshot
module Faultinj = Util.Faultinj
module S = Util.Sexp

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let mk_prop ?(count = 50) ~name prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count seed_gen prop)

let counter name =
  match Obs.Counter.find name with Some c -> Obs.Counter.value c | None -> 0

let schedules_equal a b =
  Array.length a = Array.length b && Array.for_all2 Model.Config.equal a b

(* --- failure artifacts --- *)

let artifacts_dir = "_robustness_artifacts"

let dump_artifact name text =
  (try Sys.mkdir artifacts_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat artifacts_dir name in
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* --- random instances (small: the properties run hundreds of cases) --- *)

let random_static_inst seed =
  let rng = Util.Prng.create seed in
  Sim.Scenarios.random_static ~rng ~d:(1 + Util.Prng.int rng 2)
    ~horizon:(4 + Util.Prng.int rng 7) ~max_count:2

let random_dynamic_inst seed =
  let rng = Util.Prng.create seed in
  Sim.Scenarios.random_dynamic ~rng ~d:(1 + Util.Prng.int rng 2)
    ~horizon:(4 + Util.Prng.int rng 6) ~max_count:2

let random_any_inst seed =
  if seed mod 2 = 0 then random_static_inst (seed / 2) else random_dynamic_inst (seed / 2)

(* A crash slot that depends on the seed but not on the instance
   generator's own draws. *)
let crash_slot seed horizon = Util.Prng.int (Util.Prng.create (seed + 7919)) horizon

(* --- engine + stepper crash/resume --- *)

let make_stepper alg inst =
  match alg with `A -> Online.Stepper.alg_a inst | `B -> Online.Stepper.alg_b inst

let run_uninterrupted ~alg inst =
  let engine = Online.Prefix_opt.create inst in
  let stepper = make_stepper alg inst in
  let schedule =
    Array.init (Model.Instance.horizon inst) (fun time ->
        let hat = (Online.Prefix_opt.step engine).Online.Prefix_opt.last in
        Online.Stepper.step stepper ~time ~hat)
  in
  (schedule, Online.Stepper.power_ups stepper, Online.Stepper.power_downs stepper)

(* Run to [crash_at], checkpoint through the full container codec
   (render + parse — exactly what the CLI writes and reads), discard the
   live objects, restore into fresh ones, and finish. *)
let run_crashed ~alg ~crash_at ~tag inst =
  let horizon = Model.Instance.horizon inst in
  let engine = Online.Prefix_opt.create inst in
  let stepper = make_stepper alg inst in
  let schedule = Array.make horizon [||] in
  for time = 0 to crash_at - 1 do
    let hat = (Online.Prefix_opt.step engine).Online.Prefix_opt.last in
    schedule.(time) <- Online.Stepper.step stepper ~time ~hat
  done;
  let etext = Snapshot.render ~kind:"online-run" (Online.Prefix_opt.save engine) in
  let stext = Snapshot.render ~kind:"online-run" (Online.Stepper.save stepper) in
  let fail reason =
    dump_artifact (tag ^ "-engine.snap") etext;
    dump_artifact (tag ^ "-stepper.snap") stext;
    Error reason
  in
  let engine2 = Online.Prefix_opt.create inst in
  let stepper2 = make_stepper alg inst in
  match (Snapshot.parse ~kind:"online-run" etext, Snapshot.parse ~kind:"online-run" stext) with
  | Error e, _ | _, Error e -> fail ("parse: " ^ Snapshot.error_to_string e)
  | Ok ep, Ok sp -> (
      match (Online.Prefix_opt.restore engine2 ep, Online.Stepper.restore stepper2 sp) with
      | Error m, _ | _, Error m -> fail ("restore: " ^ m)
      | Ok (), Ok () ->
          for time = crash_at to horizon - 1 do
            let hat = (Online.Prefix_opt.step engine2).Online.Prefix_opt.last in
            schedule.(time) <- Online.Stepper.step stepper2 ~time ~hat
          done;
          Ok (schedule, Online.Stepper.power_ups stepper2, Online.Stepper.power_downs stepper2))

let prop_crash_resume ~alg ~gen ~tag seed =
  let inst = gen seed in
  let crash_at = crash_slot seed (Model.Instance.horizon inst) in
  let base_sched, base_ups, base_downs = run_uninterrupted ~alg inst in
  match run_crashed ~alg ~crash_at ~tag:(Printf.sprintf "%s-%d" tag seed) inst with
  | Error _ -> false
  | Ok (sched, ups, downs) ->
      schedules_equal base_sched sched && base_ups = ups && base_downs = downs

(* --- streaming crash/resume --- *)

let session_a inst =
  Online.Streaming.alg_a ~types:inst.Model.Instance.types
    ~fns:
      (Array.init (Model.Instance.num_types inst) (fun typ ->
           inst.Model.Instance.cost ~time:0 ~typ))
    ()

let session_b inst =
  (* Clamp so the session's internal (buffer-sized, possibly longer)
     instance can probe the closure past the trace end; both runs see
     the same closure, and only fed slots reach the algorithms. *)
  let last = Model.Instance.horizon inst - 1 in
  Online.Streaming.alg_b ~types:inst.Model.Instance.types
    ~cost:(fun ~time ~typ -> inst.Model.Instance.cost ~time:(min time last) ~typ)
    ()

let prop_streaming_crash_resume ~make ~gen ~tag seed =
  let inst = gen seed in
  let loads = inst.Model.Instance.load in
  let crash_at = crash_slot seed (Array.length loads) in
  let base = Array.map (Online.Streaming.feed (make inst)) loads in
  let session = make inst in
  let sched = Array.make (Array.length loads) [||] in
  for t = 0 to crash_at - 1 do
    sched.(t) <- Online.Streaming.feed session loads.(t)
  done;
  let text = Snapshot.render ~kind:"online-run" (Online.Streaming.save session) in
  let fail () =
    dump_artifact (Printf.sprintf "%s-%d-session.snap" tag seed) text;
    false
  in
  match Snapshot.parse ~kind:"online-run" text with
  | Error _ -> fail ()
  | Ok payload -> (
      let session2 = make inst in
      match Online.Streaming.restore session2 payload with
      | Error _ -> fail ()
      | Ok () ->
          for t = crash_at to Array.length loads - 1 do
            sched.(t) <- Online.Streaming.feed session2 loads.(t)
          done;
          if Online.Streaming.fed session2 = Array.length loads && schedules_equal base sched
          then true
          else fail ())

(* --- DP frontier crash/resume --- *)

let prop_dp_frontier_resume seed =
  let inst = random_any_inst seed in
  let base = Offline.Dp.solve inst in
  let k = crash_slot seed (Model.Instance.horizon inst) in
  let captured = ref None in
  ignore
    (Offline.Dp.solve
       ~on_layer:(fun ~time thunk -> if time = k then captured := Some (thunk ()))
       inst);
  match !captured with
  | None -> false
  | Some f -> (
      let text = Snapshot.render ~kind:"dp-frontier" (Offline.Dp.frontier_to_sexp f) in
      match Snapshot.parse ~kind:"dp-frontier" text with
      | Error _ -> false
      | Ok payload -> (
          match Offline.Dp.frontier_of_sexp payload with
          | Error _ -> false
          | Ok f' ->
              let r = Offline.Dp.solve ~resume:f' inst in
              r.Offline.Dp.cost = base.Offline.Dp.cost
              && schedules_equal r.Offline.Dp.schedule base.Offline.Dp.schedule))

(* --- snapshot codec properties --- *)

let prop_float_atom_roundtrip seed =
  let rng = Util.Prng.create seed in
  let f =
    match Util.Prng.int rng 6 with
    | 0 -> infinity
    | 1 -> neg_infinity
    | 2 -> 0.
    | 3 -> -0.
    | _ -> (Util.Prng.float rng 2. -. 1.) *. Float.exp (Util.Prng.float rng 40. -. 20.)
  in
  match Snapshot.float_of_atom (Snapshot.float_atom f) with
  | Some g -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
  | None -> false

let prop_container_roundtrip seed =
  let rng = Util.Prng.create seed in
  let xs = Array.init (1 + Util.Prng.int rng 8) (fun _ -> Util.Prng.float rng 1e3 -. 500.) in
  let ns = Array.init (1 + Util.Prng.int rng 8) (fun _ -> Util.Prng.int rng 1000 - 500) in
  let payload =
    S.List
      [ S.Atom "demo"; Snapshot.float_array_field "xs" xs; Snapshot.int_array_field "ns" ns ]
  in
  match Snapshot.parse ~kind:"demo" (Snapshot.render ~kind:"demo" payload) with
  | Ok p -> String.equal (S.to_string p) (S.to_string payload)
  | Error _ -> false

(* --- fault-injection matrix --- *)

let with_armed ?seed plans f =
  Faultinj.arm ?seed plans;
  Fun.protect ~finally:Faultinj.disarm f

let test_fault_pool_degrades_to_sequential () =
  let pool = Util.Pool.create ~name:"faulty" ~domains:2 () in
  Fun.protect ~finally:(fun () -> Util.Pool.shutdown pool) @@ fun () ->
  (* A worker fault on a real fan-out: the faulted job must re-run
     sequentially with every slot still filled. *)
  let degraded0 = counter "pool.degraded_jobs" in
  let recovered0 = counter "faultinj.recovered" in
  let out = Array.make 512 (-1) in
  with_armed [ ("pool.job", Faultinj.Nth 1) ] (fun () ->
      Util.Pool.run pool ~n:512 (fun i -> out.(i) <- 2 * i));
  checkb "degraded job filled every slot" true
    (Array.for_all2 ( = ) (Array.init 512 (fun i -> 2 * i)) out);
  checkb "pool.degraded_jobs bumped" true (counter "pool.degraded_jobs" > degraded0);
  checkb "faultinj.recovered bumped" true (counter "faultinj.recovered" > recovered0)

let test_fault_pool_real_exception_propagates () =
  (* Degradation is reserved for injected faults: a genuine exception
     from a work item must still surface to the caller. *)
  let pool = Util.Pool.create ~name:"boom" ~domains:2 () in
  Fun.protect ~finally:(fun () -> Util.Pool.shutdown pool) @@ fun () ->
  let exception Boom in
  checkb "raises" true
    (try
       Util.Pool.run pool ~n:600 (fun i -> if i = 300 then raise Boom);
       false
     with Boom -> true)

(* A six-slot instance on a single-type grid of 301 states, for the DP
   layer-fault tests. *)
let wide_instance () =
  let types = [| st ~count:300 ~switching_cost:2. ~cap:1. () |] in
  let fns = [| Convex.Fn.affine ~intercept:1. ~slope:0.5 |] in
  let load = [| 10.; 120.; 40.; 290.; 5.; 90. |] in
  Model.Instance.make_static ~types ~load ~fns ()

let test_fault_dp_layer_refill () =
  let inst = wide_instance () in
  let base = Offline.Dp.solve inst in
  let retries0 = counter "dp.layer_retries" in
  let r = with_armed [ ("dp.layer_fill", Faultinj.Every 2) ] (fun () -> Offline.Dp.solve inst) in
  checkb "refilled solve bit-identical" true
    (r.Offline.Dp.cost = base.Offline.Dp.cost
    && schedules_equal r.Offline.Dp.schedule base.Offline.Dp.schedule);
  checki "every other layer retried" (retries0 + 3) (counter "dp.layer_retries")

let test_fault_dp_prob_plan_is_seeded () =
  (* Same seed, same call sequence: the Prob plan must fire identically,
     so the retry counter advances by the same amount both times. *)
  let inst = wide_instance () in
  let run () =
    let before = counter "dp.layer_retries" in
    ignore
      (with_armed ~seed:42 [ ("dp.layer_fill", Faultinj.Prob 0.5) ] (fun () ->
           Offline.Dp.solve inst));
    counter "dp.layer_retries" - before
  in
  let a = run () and b = run () in
  checki "identical replay" a b

let test_fault_torn_snapshot_rejected () =
  let path = Filename.temp_file "rightsizer" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  let payload = S.List [ S.Atom "demo"; Snapshot.float_array_field "xs" [| 1.5; 2.25; -3. |] ] in
  checkb "save raises Injected" true
    (with_armed [ ("snapshot.write", Faultinj.Nth 1) ] (fun () ->
         try
           ignore (Snapshot.save ~path ~kind:"demo" payload);
           false
         with Faultinj.Injected { site = "snapshot.write"; _ } -> true));
  (* The torn file is on disk; loading it must fail with a typed error,
     never hand back a payload. *)
  (match Snapshot.load ~kind:"demo" ~path () with
  | Ok _ -> Alcotest.fail "torn snapshot was accepted"
  | Error (Snapshot.Bad_format _ | Snapshot.Bad_checksum _) -> ()
  | Error e -> Alcotest.fail ("unexpected error class: " ^ Snapshot.error_to_string e));
  (* A clean retry (site fired once) must produce a loadable snapshot. *)
  (match Snapshot.save ~path ~kind:"demo" payload with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Snapshot.error_to_string e));
  match Snapshot.load ~kind:"demo" ~path () with
  | Ok p -> checkb "payload intact" true (String.equal (S.to_string p) (S.to_string payload))
  | Error e -> Alcotest.fail (Snapshot.error_to_string e)

let replace_once ~sub ~by text =
  let len = String.length sub in
  let rec find i =
    if i + len > String.length text then None
    else if String.equal (String.sub text i len) sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> text
  | Some i ->
      String.sub text 0 i ^ by ^ String.sub text (i + len) (String.length text - i - len)

let test_corrupted_payload_checksum () =
  let payload = S.List [ S.Atom "demo"; S.List [ S.Atom "tag"; S.Atom "alpha" ] ] in
  let text = Snapshot.render ~kind:"demo" payload in
  (* Flip payload bytes without breaking the sexp: still parseable, so
     rejection must come from the digest. *)
  let corrupt = replace_once ~sub:"alpha" ~by:"alphb" text in
  checkb "text changed" true (not (String.equal corrupt text));
  match Snapshot.parse ~kind:"demo" corrupt with
  | Error (Snapshot.Bad_checksum _) -> ()
  | Error e -> Alcotest.fail ("expected Bad_checksum, got " ^ Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "corrupted payload accepted"

let test_unknown_version_rejected () =
  let text = Snapshot.render ~kind:"demo" (S.Atom "x") in
  let hacked = replace_once ~sub:"(version 1)" ~by:"(version 99)" text in
  match Snapshot.parse hacked with
  | Error (Snapshot.Unknown_version 99) -> ()
  | Error e -> Alcotest.fail ("expected Unknown_version, got " ^ Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "future version accepted"

let test_wrong_kind_rejected () =
  let text = Snapshot.render ~kind:"dp-frontier" (S.Atom "x") in
  match Snapshot.parse ~kind:"online-run" text with
  | Error (Snapshot.Wrong_kind { expected = "online-run"; actual = "dp-frontier" }) -> ()
  | Error e -> Alcotest.fail ("expected Wrong_kind, got " ^ Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "wrong kind accepted"

let test_old_online_checkpoint_refused () =
  (* An online-run checkpoint holds a Streaming.save payload.  The
     older CLI payload, (online-run (time k) (schedule (x ..) ..)
     (engine ..) (stepper ..)), must be refused, never misread. *)
  let inst = Sim.Scenarios.cpu_gpu ~horizon:6 () in
  let engine = Online.Prefix_opt.create inst and stepper = Online.Stepper.alg_a inst in
  let schedule =
    List.init 3 (fun time ->
        let hat = (Online.Prefix_opt.step engine).Online.Prefix_opt.last in
        Online.Stepper.step stepper ~time ~hat)
  in
  let old =
    S.List
      [ S.Atom "online-run";
        S.List [ S.Atom "time"; S.Atom "3" ];
        S.List (S.Atom "schedule" :: List.map (Snapshot.int_array_field "x") schedule);
        S.List [ S.Atom "engine"; Online.Prefix_opt.save engine ];
        S.List [ S.Atom "stepper"; Online.Stepper.save stepper ] ]
  in
  match Snapshot.parse ~kind:"online-run" (Snapshot.render ~kind:"online-run" old) with
  | Error e -> Alcotest.fail ("container: " ^ Snapshot.error_to_string e)
  | Ok payload -> (
      match Online.Streaming.restore (session_a inst) payload with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "an old online-run payload was restored")

let test_tampered_power_events_refused () =
  (* A payload can pass its checksum and still carry stepper events
     that Streaming.decisions cannot replay into the saved run: each
     such payload must be refused on restore. *)
  let inst = Sim.Scenarios.cpu_gpu ~horizon:12 () in
  let session = session_a inst in
  for t = 0 to 7 do
    ignore (Online.Streaming.feed session inst.Model.Instance.load.(t))
  done;
  let snap = Online.Streaming.save session in
  let event (time, typ, count) =
    S.List (List.map (fun i -> S.Atom (string_of_int i)) [ time; typ; count ])
  in
  let rec field name = function
    | S.List (S.Atom n :: events) when n = name -> Some events
    | S.List items -> List.find_map (field name) items
    | S.Atom _ -> None
  in
  let rec tamper name f = function
    | S.List (S.Atom n :: events) when n = name -> S.List (S.Atom n :: f events)
    | S.List items -> S.List (List.map (tamper name f) items)
    | S.Atom _ as a -> a
  in
  let restore payload = Online.Streaming.restore (session_a inst) payload in
  checkb "fixture power-ups" true
    (field "ups" snap
    = Some (List.map event [ (0, 0, 2); (3, 0, 1); (4, 1, 1); (6, 0, 1); (7, 1, 1) ]));
  checkb "fixture power-downs" true (field "downs" snap = Some [ event (6, 0, 2) ]);
  checkb "untampered payload restores" true (Result.is_ok (restore snap));
  let set_first e = function _ :: rest -> event e :: rest | [] -> [] in
  let set_last e l = List.rev (set_first e (List.rev l)) in
  List.iter
    (fun (what, name, f) ->
      match restore (tamper name f snap) with
      | Error m ->
          checkb (what ^ ": " ^ m) true (String.starts_with ~prefix:"stepper: power events" m)
      | Ok () -> Alcotest.failf "restored a payload with %s" what)
    [ ("a type out of range", "ups", set_first (0, 2, 2));
      ("an event before slot 0", "ups", set_first (-1, 0, 2));
      ("an event at an unprocessed slot", "ups", set_last (8, 1, 1));
      ("a zero count", "ups", fun l -> l @ [ event (7, 0, 0) ]);
      ("events out of time order", "ups", List.rev);
      ("a dropped power-down", "downs", fun _ -> []) ]

(* [f] applied to the field list of a Streaming payload's stepper. *)
let tamper_stepper f = function
  | S.List items ->
      S.List
        (List.map
           (function
             | S.List [ S.Atom "stepper"; S.List (S.Atom "stepper" :: fields) ] ->
                 S.List [ S.Atom "stepper"; S.List (S.Atom "stepper" :: f fields) ]
             | item -> item)
           items)
  | S.Atom _ as a -> a

let stepper_fields snap =
  let found = ref [] in
  ignore
    (tamper_stepper
       (fun fields ->
         found := fields;
         fields)
       snap);
  !found

let stepper_field name snap = Option.get (S.assoc name (stepper_fields snap))

let int_atoms l = List.map (fun i -> S.Atom (string_of_int i)) l

(* A [Stepper.save] payload with its clock, configuration and power
   events passed through [clock], [x], [ups] and [downs]. *)
let tamper_events ?(clock = Fun.id) ?(x = Fun.id) ?(ups = Fun.id) ?(downs = Fun.id) =
  function
  | S.List (S.Atom "stepper" :: fields) ->
      let int a = Option.get (S.int_atom a) in
      let events f items =
        List.map
          (fun (t, j, c) -> S.List (int_atoms [ t; j; c ]))
          (f
             (List.map
                (function
                  | S.List [ t; j; c ] -> (int t, int j, int c)
                  | _ -> Alcotest.fail "malformed power event")
                items))
      in
      S.List
        (S.Atom "stepper"
        :: List.map
             (function
               | S.List [ S.Atom "clock"; c ] ->
                   S.List [ S.Atom "clock"; S.Atom (string_of_int (clock (int c))) ]
               | S.List (S.Atom "x" :: xs) ->
                   S.List (S.Atom "x" :: int_atoms (Array.to_list (x (Array.of_list (List.map int xs)))))
               | S.List (S.Atom "ups" :: items) -> S.List (S.Atom "ups" :: events ups items)
               | S.List (S.Atom "downs" :: items) ->
                   S.List (S.Atom "downs" :: events downs items)
               | field -> field)
             fields)
  | S.Atom _ | S.List _ -> Alcotest.fail "not a stepper payload"

(* A B stepper run over the 48 slots of cpu-gpu, and restoring a payload
   into a fresh B stepper over the same instance. *)
let b_run () =
  let inst = Sim.Scenarios.cpu_gpu ~horizon:48 () in
  let b = Online.Stepper.run ~span:"test" Online.Stepper.alg_b inst in
  (inst, b.Online.Stepper.stepper, fun payload ->
    Online.Stepper.restore (Online.Stepper.alg_b inst) payload)

let running_count_refusal = "stepper: power events take a count outside 0 .. count_j"

(* Power events that still lead from all-off to the saved configuration
   but take a type's running count out of [0, count_j] at some slot must
   be refused.  Before restore followed the running count, a B payload
   with a power-down of 3 servers of type 1 put first and a power-up of
   3 put last restored, and answered slot 0 with (2, -3). *)
let test_running_count_below_zero_refused () =
  let _, stepper, restore = b_run () in
  let payload = Online.Stepper.save stepper in
  checkb "untampered payload restores" true (Result.is_ok (restore payload));
  match
    restore
      (tamper_events payload
         ~downs:(fun l -> (0, 1, 3) :: l)
         ~ups:(fun l -> l @ [ (47, 1, 3) ]))
  with
  | Error m -> Alcotest.(check string) "refusal" running_count_refusal m
  | Ok () -> Alcotest.fail "restored a payload whose type-1 count goes below 0"

(* The other direction: every server of type 1 powered up at slot 0
   beside the run's own power-ups, and as many powered down at slot 47,
   so type 1 runs above its fleet size whenever the run has it on. *)
let test_running_count_above_fleet_refused () =
  let inst, stepper, restore = b_run () in
  let fleet = Model.Instance.max_count inst ~typ:1 in
  checkb "the run powers type 1 up" true
    (List.exists (fun (_, j, _) -> j = 1) (Online.Stepper.power_ups stepper));
  let by_slot_and_type =
    List.stable_sort (fun (t, j, _) (t', j', _) -> compare (t, j) (t', j'))
  in
  match
    restore
      (tamper_events (Online.Stepper.save stepper)
         ~ups:(fun l -> by_slot_and_type ((0, 1, fleet) :: l))
         ~downs:(fun l -> l @ [ (47, 1, fleet) ]))
  with
  | Error m -> Alcotest.(check string) "refusal" running_count_refusal m
  | Ok () -> Alcotest.fail "restored a payload whose type-1 count exceeds the fleet"

(* The event log packs a slot and a count into one word, each at most
   2^31 - 1.  A fleet with more servers of one type is refused when a
   stepper is built, under every rule. *)
let test_log_count_limit_refused () =
  let inst count =
    Model.Instance.make_static
      ~types:[| st ~count ~switching_cost:1. ~cap:1. () |]
      ~load:[| 1. |] ~fns:[| Convex.Fn.const 1. |] ()
  in
  List.iter
    (fun (name, make) ->
      checkb (name ^ ": 2^31 - 1 servers accepted") true
        (try ignore (make (inst ((1 lsl 31) - 1))); true with Invalid_argument _ -> false);
      checkb (name ^ ": 2^31 servers refused") true
        (try ignore (make (inst (1 lsl 31))); false with Invalid_argument _ -> true))
    [ ("a", Online.Stepper.alg_a); ("b", Online.Stepper.alg_b);
      ("det2d", Online.Stepper.alg_det2d); ("homog", Online.Stepper.alg_homog) ]

(* A payload whose clock lies past the log's slot limit is refused on
   restore, whatever the instance's horizon. *)
let test_log_slot_limit_refused () =
  let _, stepper, restore = b_run () in
  match restore (tamper_events (Online.Stepper.save stepper) ~clock:(fun _ -> (1 lsl 31) + 1)) with
  | Error m -> Alcotest.(check string) "refusal" "stepper: clock past the event log's slot limit" m
  | Ok () -> Alcotest.fail "restored a clock past the event log's slot limit"

(* A power-event count past the log's count limit is refused, never
   packed: 2^40 servers would spill into the slot bits.  The saved
   configuration is raised to match, so only the running count gives it
   away. *)
let test_log_event_count_limit_refused () =
  let _, stepper, restore = b_run () in
  let big = 1 lsl 40 in
  let typ =
    match Online.Stepper.power_ups stepper with
    | (_, j, _) :: _ -> j
    | [] -> Alcotest.fail "the run has no power-up"
  in
  let tampered =
    tamper_events (Online.Stepper.save stepper)
      ~ups:(function (t, j, c) :: rest -> (t, j, c + big) :: rest | [] -> [])
      ~x:(Array.mapi (fun j v -> if j = typ then v + big else v))
  in
  match restore tampered with
  | Error m -> Alcotest.(check string) "refusal" running_count_refusal m
  | Ok () -> Alcotest.fail "restored a power event of 2^40 servers"

(* Algorithm A's payloads used to carry a table of every power-up, [w],
   which restore loaded as the pending power-downs.  The payload below,
   with every [w] count raised by 3, restored when [w] was read, and 5
   of its next 40 decisions then differed from the uninterrupted
   session's.  The open timers are now rebuilt from the power events and
   [w] is ignored, so it continues exactly like the uninterrupted
   session. *)
let test_old_w_table_ignored () =
  let inst = Sim.Scenarios.cpu_gpu ~horizon:60 () in
  let loads = inst.Model.Instance.load in
  let whole = session_a inst and live = session_a inst in
  for t = 0 to 19 do
    ignore (Online.Streaming.feed whole loads.(t));
    ignore (Online.Streaming.feed live loads.(t))
  done;
  let snap = Online.Streaming.save live in
  let d = Model.Instance.num_types inst in
  let ups =
    List.map
      (function
        | S.List [ u; typ; c ] ->
            let int a = Option.get (S.int_atom a) in
            (int u, int typ, int c)
        | _ -> Alcotest.fail "malformed ups")
      (stepper_field "ups" snap)
  in
  let slots = List.sort_uniq compare (List.map (fun (u, _, _) -> u) ups) in
  let w =
    List.map
      (fun slot ->
        let counts = Array.make d 3 in
        List.iter
          (fun (u, typ, c) -> if u = slot then counts.(typ) <- counts.(typ) + c)
          ups;
        S.List (int_atoms (slot :: Array.to_list counts)))
      slots
  in
  checkb "the table names power-ups" true (w <> []);
  let resumed = session_a inst in
  (match
     Online.Streaming.restore resumed
       (tamper_stepper
          (fun fields ->
            List.filter (function S.List (S.Atom "w" :: _) -> false | _ -> true) fields
            @ [ S.List (S.Atom "w" :: w) ])
          snap)
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("old-format payload refused: " ^ m));
  for t = 20 to 59 do
    Alcotest.(check (array int))
      (Printf.sprintf "slot %d" t)
      (Online.Streaming.feed whole loads.(t))
      (Online.Streaming.feed resumed loads.(t))
  done

(* The open groups of B (and the timers A rebuilds from its power-ups)
   must name processed slots and sum to the saved configuration.
   Before restore checked them, a time-varying B payload with every
   group count raised by 2 restored.  Each payload below passes every
   other check and must be refused. *)
let test_tampered_open_groups_refused () =
  let inst = Sim.Scenarios.time_varying_costs ~horizon:24 () in
  let b = session_b inst in
  for t = 0 to 11 do
    ignore (Online.Streaming.feed b inst.Model.Instance.load.(t))
  done;
  let snap_b = Online.Streaming.save b in
  let groups = stepper_field "open-groups" snap_b in
  checkb "the B payload has open groups" true
    (List.exists (function S.List (_ :: _) -> true | _ -> false) groups);
  let map_groups f =
    tamper_stepper
      (List.map (function
        | S.List (S.Atom "open-groups" :: per_type) ->
            S.List
              (S.Atom "open-groups"
              :: List.map
                   (function
                     | S.List gs ->
                         S.List
                           (List.map
                              (function
                                | S.List [ u; c; base ] ->
                                    let int a = Option.get (S.int_atom a) in
                                    let u, c = f (int u, int c) in
                                    S.List (int_atoms [ u; c ] @ [ base ])
                                | g -> g)
                              gs)
                     | g -> g)
                   per_type)
        | field -> field))
  in
  let cpu = Sim.Scenarios.cpu_gpu ~horizon:12 () in
  let a = session_a cpu in
  for t = 0 to 7 do
    ignore (Online.Streaming.feed a cpu.Model.Instance.load.(t))
  done;
  let snap_a = Online.Streaming.save a in
  (* drop A's last power-down and raise x to match the events: the
     events still lead to x, but the timers they leave open do not *)
  let drop_last_down fields =
    let rev = List.rev (Option.get (S.assoc "downs" fields)) in
    match rev with
    | S.List [ _; typ; c ] :: rest ->
        let typ = Option.get (S.int_atom typ) and c = Option.get (S.int_atom c) in
        List.map
          (function
            | S.List (S.Atom "downs" :: _) -> S.List (S.Atom "downs" :: List.rev rest)
            | S.List (S.Atom "x" :: xs) ->
                S.List
                  (S.Atom "x"
                  :: List.mapi
                       (fun j v ->
                         let v = Option.get (S.int_atom v) in
                         S.Atom (string_of_int (if j = typ then v + c else v)))
                       xs)
            | field -> field)
          fields
    | _ -> Alcotest.fail "the A payload has no power-down"
  in
  checkb "untampered payloads restore" true
    (Result.is_ok (Online.Streaming.restore (session_b inst) snap_b)
    && Result.is_ok (Online.Streaming.restore (session_a cpu) snap_a));
  List.iter
    (fun (what, restore, payload, expected) ->
      match restore payload with
      | Error m -> Alcotest.(check string) what expected m
      | Ok () -> Alcotest.failf "restored a payload with %s" what)
    [ ( "every B group count raised by 2",
        Online.Streaming.restore (session_b inst),
        map_groups (fun (u, c) -> (u, c + 2)) snap_b,
        "stepper: open groups do not sum to x" );
      ( "a B group at the clock",
        Online.Streaming.restore (session_b inst),
        map_groups (fun (_, c) -> (12, c)) snap_b,
        "stepper: open groups out of range" );
      ( "an A power-down dropped and x raised to match",
        Online.Streaming.restore (session_a cpu),
        tamper_stepper drop_last_down snap_a,
        "stepper: open timers do not sum to x" ) ]

(* Each part of a Streaming payload carries its own clock.  A payload
   whose engine or stepper clock disagrees with the session's passes
   every other check, and the engine's arrival plane then stands for
   the wrong slot: a cpu-gpu session saved after 8 slots and restored
   with its engine clock at 7 decided slot 9 as (1, 2), where the
   saved session decides (2, 2).  Both must be refused on restore. *)
let test_tampered_clock_refused ~part ~clock ~expected () =
  let inst = Sim.Scenarios.cpu_gpu ~horizon:12 () in
  let session = session_a inst in
  for t = 0 to 7 do
    ignore (Online.Streaming.feed session inst.Model.Instance.load.(t))
  done;
  let snap = Online.Streaming.save session in
  let rec retime = function
    | S.List (S.Atom p :: fields) when p = part ->
        S.List
          (S.Atom p
          :: List.map
               (function
                 | S.List [ S.Atom "clock"; S.Atom _ ] ->
                     S.List [ S.Atom "clock"; S.Atom (string_of_int clock) ]
                 | field -> retime field)
               fields)
    | S.List items -> S.List (List.map retime items)
    | S.Atom _ as a -> a
  in
  let tampered = retime snap in
  checkb "the payload was tampered" false (tampered = snap);
  checkb "untampered payload restores" true
    (Result.is_ok (Online.Streaming.restore (session_a inst) snap));
  match Online.Streaming.restore (session_a inst) tampered with
  | Error m -> Alcotest.(check string) "refusal" expected m
  | Ok () -> Alcotest.failf "restored a payload with its %s clock at %d" part clock

(* A checked-in fixture: cwd is test/ under `dune runtest`, the project
   root under `dune exec test/test_robustness.exe` (the CI shards). *)
let fixture name =
  let path = Filename.concat "fixtures" name in
  if Sys.file_exists path then path else Filename.concat "test" path

(* test/fixtures/online_three_tier_v1.snap was written by the CLI before
   the engine's arrival plane became canonical: [online --scenario
   three-tier --horizon 24 --checkpoint F --checkpoint-every 5
   --crash-after 10].  Its plane keeps the arrival cost of states that
   the canonical plane holds at +infinity.  Restored into the session
   [online] builds, it must decide every remaining slot exactly like an
   uninterrupted session. *)
let test_online_v1_fixture_resumes () =
  let path = fixture "online_three_tier_v1.snap" in
  let horizon = 24 in
  let inst = Sim.Scenarios.three_tier ~horizon () in
  let types = inst.Model.Instance.types in
  let fns = Array.mapi (fun typ _ -> inst.Model.Instance.cost ~time:0 ~typ) types in
  let session () = Online.Streaming.alg_a ~max_horizon:horizon ~types ~fns () in
  let loads = inst.Model.Instance.load in
  let whole = session () in
  let engine_payload s =
    match Online.Streaming.save s with
    | S.List fields ->
        List.find_map
          (function S.List [ S.Atom "engine"; e ] -> Some e | _ -> None)
          fields
    | S.Atom _ -> None
  in
  match Snapshot.load ~kind:"online-run" ~path () with
  | Error e -> Alcotest.fail ("online fixture unreadable: " ^ Snapshot.error_to_string e)
  | Ok payload ->
      let resumed = session () in
      (match Online.Streaming.restore resumed payload with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("online fixture refused: " ^ m));
      checki "slots in the fixture" 10 (Online.Streaming.fed resumed);
      for t = 0 to 9 do
        ignore (Online.Streaming.feed whole loads.(t))
      done;
      checkb "the fixture's plane is not the canonical one" false
        (engine_payload resumed = engine_payload whole);
      for t = 10 to horizon - 1 do
        Alcotest.(check (array int))
          (Printf.sprintf "slot %d" t)
          (Online.Streaming.feed whole loads.(t))
          (Online.Streaming.feed resumed loads.(t))
      done;
      checkb "schedules agree" true
        (Online.Streaming.decisions resumed ~from_:0
        = Online.Streaming.decisions whole ~from_:0)

(* test/fixtures/online_time_varying_v1.snap was written by the CLI while
   algorithm B kept idle prefix rows sized to the horizon: [online
   --scenario time-varying --horizon 24 --checkpoint F --checkpoint-every
   5 --crash-after 10].  Restored into the session [online] builds, its
   rows convert to running sums, and the session must decide every
   remaining slot exactly like an uninterrupted one. *)
let test_online_b_v1_fixture_resumes () =
  let horizon = 24 in
  let inst = Sim.Scenarios.time_varying_costs ~horizon () in
  let session () =
    Online.Streaming.alg_b ~max_horizon:horizon ~types:inst.Model.Instance.types
      ~cost:inst.Model.Instance.cost ()
  in
  let loads = inst.Model.Instance.load in
  let path = fixture "online_time_varying_v1.snap" in
  match Snapshot.load ~kind:"online-run" ~path () with
  | Error e -> Alcotest.fail ("online fixture unreadable: " ^ Snapshot.error_to_string e)
  | Ok payload ->
      checkb "the fixture carries prefix rows" true
        (S.assoc "prefix" (stepper_fields payload) <> None);
      let resumed = session () and whole = session () in
      (match Online.Streaming.restore resumed payload with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("online fixture refused: " ^ m));
      checki "slots in the fixture" 10 (Online.Streaming.fed resumed);
      for t = 0 to 9 do
        ignore (Online.Streaming.feed whole loads.(t))
      done;
      for t = 10 to horizon - 1 do
        Alcotest.(check (array int))
          (Printf.sprintf "slot %d" t)
          (Online.Streaming.feed whole loads.(t))
          (Online.Streaming.feed resumed loads.(t))
      done;
      checkb "schedules agree" true
        (Online.Streaming.decisions resumed ~from_:0
        = Online.Streaming.decisions whole ~from_:0)

(* test/fixtures/session_time_varying_v1.sexp is a [Server.Session.save]
   written while sessions kept a decision history beside their state and
   algorithm B kept idle prefix rows: a time-varying session fed 70
   slots (past its first 64-slot buffer) of the scenario's loads,
   repeated.  It must restore and continue bit-identically to a session
   fed the same loads; with one history row changed, or one dropped, it
   must be refused. *)
let test_session_v1_fixture () =
  let path = fixture "session_time_varying_v1.sexp" in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let payload = match S.parse text with Ok p -> p | Error m -> Alcotest.fail m in
  let inst = Sim.Scenarios.time_varying_costs () in
  let h = Array.length inst.Model.Instance.load in
  let loads = Array.init 100 (fun t -> inst.Model.Instance.load.(t mod h)) in
  let resumed =
    match Server.Session.of_sexp payload with
    | Ok s -> s
    | Error m -> Alcotest.fail ("session fixture refused: " ^ m)
  in
  checki "slots in the fixture" 70 (Server.Session.fed resumed);
  let whole =
    match
      Server.Session.create ~id:"whole"
        { Server.Session.scenario = "time-varying"; max_horizon = None; alg = None }
    with
    | Ok s -> s
    | Error (_, m) -> Alcotest.fail m
  in
  let feed s seq n =
    match Server.Session.feed s ~seq (Array.sub loads seq n) with
    | Ok xs -> xs
    | Error (_, m) -> Alcotest.fail m
  in
  let first = feed whole 0 70 in
  checkb "re-fed slots answer the fixture's decisions" true (feed resumed 0 70 = first);
  checkb "the rest continues bit-identically" true (feed resumed 70 30 = feed whole 70 30);
  let edit_history f = function
    | S.List fields ->
        S.List
          (List.map
             (function
               | S.List (S.Atom "history" :: rows) -> S.List (S.Atom "history" :: f rows)
               | field -> field)
             fields)
    | S.Atom _ as a -> a
  in
  List.iter
    (fun (what, f) ->
      match Server.Session.of_sexp (edit_history f payload) with
      | Error m ->
          Alcotest.(check string) what "session: history disagrees with the power events" m
      | Ok _ -> Alcotest.failf "restored a session payload with %s" what)
    [ ( "a history row changed",
        List.mapi (fun i row ->
            if i = 40 then Snapshot.int_array_field "x" [| 9; 9 |] else row) );
      ("a history row dropped", List.tl) ]

let test_fault_streaming_feed_clean_retry () =
  let types = [| st ~count:2 ~switching_cost:3. ~cap:1. () |] in
  let fns = [| Convex.Fn.const 1. |] in
  let clean = Online.Streaming.alg_a ~types ~fns () in
  let expected = Online.Streaming.feed clean 1.5 in
  let session = Online.Streaming.alg_a ~types ~fns () in
  with_armed [ ("streaming.feed", Faultinj.Nth 1) ] @@ fun () ->
  checkb "feed raises Injected" true
    (try
       ignore (Online.Streaming.feed session 1.5);
       false
     with Faultinj.Injected { site = "streaming.feed"; _ } -> true);
  checki "no slot consumed" 0 (Online.Streaming.fed session);
  (* The fault fires before any mutation, so feeding the same slot again
     (the site fired once) continues cleanly. *)
  let x = Online.Streaming.feed session 1.5 in
  checkb "retry matches unfaulted session" true (Model.Config.equal expected x);
  checki "slot consumed" 1 (Online.Streaming.fed session)

(* --- streaming buffer growth boundaries (fixed 4096-cap regression) --- *)

let big_session ?max_horizon () =
  let types = [| st ~count:1 ~switching_cost:1. ~cap:1. () |] in
  let fns = [| Convex.Fn.const 0.25 |] in
  Online.Streaming.alg_a ?max_horizon ~types ~fns ()

let test_streaming_unbounded_past_4096 () =
  let session = big_session () in
  let grows0 = counter "streaming.buffer_grows" in
  for t = 1 to 4097 do
    let x = Online.Streaming.feed session 0.5 in
    if t = 4095 || t = 4096 || t = 4097 then
      checkb (Printf.sprintf "slot %d served" t) true (Model.Config.equal x [| 1 |])
  done;
  checki "fed 4097" 4097 (Online.Streaming.fed session);
  checkb "buffer grew geometrically" true (counter "streaming.buffer_grows" > grows0)

let test_streaming_hard_cap_4096 () =
  let session = big_session ~max_horizon:4096 () in
  for _ = 1 to 4095 do ignore (Online.Streaming.feed session 0.5) done;
  checki "4095 fed" 4095 (Online.Streaming.fed session);
  ignore (Online.Streaming.feed session 0.5);
  checki "4096 fed (cap reached exactly)" 4096 (Online.Streaming.fed session);
  checkb "4097th feed rejected" true
    (try
       ignore (Online.Streaming.feed session 0.5);
       false
     with Invalid_argument _ -> true)

(* --- golden snapshot format (v1 compatibility) --- *)

let test_golden_v1_fixture () =
  (* The checked-in fixture was written by the CLI's --checkpoint path:
     [solve --scenario cpu-gpu --horizon 6 --checkpoint-every 1
     --crash-after 3].  Reading it — and resuming from it to the exact
     uninterrupted optimum — pins the v1 container and frontier codec:
     a format change that breaks old checkpoints fails here first. *)
  let path = fixture "golden_v1.snap" in
  match Snapshot.load ~kind:"dp-frontier" ~path () with
  | Error e -> Alcotest.fail ("golden fixture unreadable: " ^ Snapshot.error_to_string e)
  | Ok payload -> (
      match Offline.Dp.frontier_of_sexp payload with
      | Error m -> Alcotest.fail ("golden frontier undecodable: " ^ m)
      | Ok f ->
          checki "next-time" 3 f.Offline.Dp.next_time;
          checki "layers kept for reconstruction" 3 (Array.length f.Offline.Dp.layers);
          let inst = Sim.Scenarios.cpu_gpu ~horizon:6 () in
          let base = Offline.Dp.solve inst in
          let r = Offline.Dp.solve ~resume:f inst in
          checkb "resume from golden matches uninterrupted solve" true
            (r.Offline.Dp.cost = base.Offline.Dp.cost
            && schedules_equal r.Offline.Dp.schedule base.Offline.Dp.schedule))

(* test/fixtures/dp_maintenance_v1.snap was written by the CLI before
   the offline forward pass kept canonical layers: [solve --scenario
   maintenance --horizon 12 --checkpoint F --checkpoint-every 1
   --crash-after 6].  Maintenance changes the grid at its windows, so
   the resume crosses grids.  The fixture keeps finite costs at 75
   states the canonical layers hold at +infinity, and matches them bit
   for bit everywhere else; resuming from it must still give the
   uninterrupted solve's cost and schedule. *)
let test_dp_maintenance_v1_fixture () =
  let path = fixture "dp_maintenance_v1.snap" in
  match Snapshot.load ~kind:"dp-frontier" ~path () with
  | Error e -> Alcotest.fail ("maintenance fixture unreadable: " ^ Snapshot.error_to_string e)
  | Ok payload -> (
      match Offline.Dp.frontier_of_sexp payload with
      | Error m -> Alcotest.fail ("maintenance frontier undecodable: " ^ m)
      | Ok f ->
          checki "next-time" 6 f.Offline.Dp.next_time;
          let inst = Sim.Scenarios.maintenance ~horizon:12 () in
          let canonical = ref None in
          let base =
            Offline.Dp.solve
              ~on_layer:(fun ~time thunk -> if time = 5 then canonical := Some (thunk ()))
              inst
          in
          (* The layers differ only where the canonical ones hold +infinity. *)
          let pruned = ref 0 and other = ref 0 in
          Array.iteri
            (fun t layer ->
              Array.iteri
                (fun i v ->
                  let w = (Option.get !canonical).Offline.Dp.layers.(t).(i) in
                  if Float.is_finite v && w = infinity then incr pruned
                  else if Int64.bits_of_float v <> Int64.bits_of_float w then incr other)
                layer)
            f.Offline.Dp.layers;
          checki "fixture cells finite where the canonical layer is +infinity" 75 !pruned;
          checki "fixture cells differing otherwise" 0 !other;
          let r = Offline.Dp.solve ~resume:f inst in
          checkb "resume from the fixture matches the uninterrupted solve" true
            (r.Offline.Dp.cost = base.Offline.Dp.cost
            && schedules_equal r.Offline.Dp.schedule base.Offline.Dp.schedule))

let () =
  Alcotest.run ~and_exit:false "robustness"
    [ ( "crash-resume",
        [ mk_prop ~count:200 ~name:"alg A engine+stepper save/load/continue bit-identical"
            (prop_crash_resume ~alg:`A ~gen:random_static_inst ~tag:"a-stepper");
          mk_prop ~count:200 ~name:"alg B engine+stepper save/load/continue bit-identical"
            (prop_crash_resume ~alg:`B ~gen:random_dynamic_inst ~tag:"b-stepper");
          mk_prop ~count:200 ~name:"streaming session (A) save/load/continue bit-identical"
            (prop_streaming_crash_resume ~make:session_a ~gen:random_static_inst
               ~tag:"a-streaming");
          mk_prop ~count:200 ~name:"streaming session (B) save/load/continue bit-identical"
            (prop_streaming_crash_resume ~make:session_b ~gen:random_dynamic_inst
               ~tag:"b-streaming");
          mk_prop ~count:60 ~name:"DP frontier checkpoint resumes to identical solve"
            prop_dp_frontier_resume
        ] );
      ( "snapshot-codec",
        [ mk_prop ~count:200 ~name:"float atoms round-trip bit-exactly"
            prop_float_atom_roundtrip;
          mk_prop ~count:100 ~name:"container render/parse round-trips payloads"
            prop_container_roundtrip;
          Alcotest.test_case "golden v1 fixture still loads and resumes" `Quick
            test_golden_v1_fixture;
          Alcotest.test_case "cross-grid v1 frontier resumes to the same solve" `Quick
            test_dp_maintenance_v1_fixture;
          Alcotest.test_case "unknown version rejected" `Quick test_unknown_version_rejected;
          Alcotest.test_case "wrong kind rejected" `Quick test_wrong_kind_rejected;
          Alcotest.test_case "old online-run checkpoint refused" `Quick
            test_old_online_checkpoint_refused;
          Alcotest.test_case "tampered engine clock refused" `Quick
            (test_tampered_clock_refused ~part:"prefix-opt" ~clock:7
               ~expected:"streaming: engine clock does not match the session clock");
          Alcotest.test_case "tampered stepper clock refused" `Quick
            (test_tampered_clock_refused ~part:"stepper" ~clock:9
               ~expected:"streaming: stepper clock does not match the session clock");
          Alcotest.test_case "online checkpoint with a pre-canonical plane resumes" `Quick
            test_online_v1_fixture_resumes;
          Alcotest.test_case "tampered power events refused" `Quick
            test_tampered_power_events_refused;
          Alcotest.test_case "tampered open groups and timers refused" `Quick
            test_tampered_open_groups_refused;
          Alcotest.test_case "power events below 0 refused" `Quick
            test_running_count_below_zero_refused;
          Alcotest.test_case "power events above the fleet refused" `Quick
            test_running_count_above_fleet_refused;
          Alcotest.test_case "fleet past the event log's count limit refused" `Quick
            test_log_count_limit_refused;
          Alcotest.test_case "clock past the event log's slot limit refused" `Quick
            test_log_slot_limit_refused;
          Alcotest.test_case "event count past the event log's limit refused" `Quick
            test_log_event_count_limit_refused;
          Alcotest.test_case "an old A payload's w table is ignored" `Quick
            test_old_w_table_ignored;
          Alcotest.test_case "B checkpoint with idle prefix rows resumes" `Quick
            test_online_b_v1_fixture_resumes;
          Alcotest.test_case "session payload with a history resumes" `Quick
            test_session_v1_fixture;
          Alcotest.test_case "corrupted payload fails the checksum" `Quick
            test_corrupted_payload_checksum
        ] );
      ( "fault-injection",
        [ Alcotest.test_case "pool degrades to sequential, result identical" `Quick
            test_fault_pool_degrades_to_sequential;
          Alcotest.test_case "real exceptions still propagate" `Quick
            test_fault_pool_real_exception_propagates;
          Alcotest.test_case "DP layer refill absorbs injected fault" `Quick
            test_fault_dp_layer_refill;
          Alcotest.test_case "Prob plans replay identically per seed" `Quick
            test_fault_dp_prob_plan_is_seeded;
          Alcotest.test_case "torn snapshot write rejected on load" `Quick
            test_fault_torn_snapshot_rejected;
          Alcotest.test_case "streaming feed fault leaves session intact" `Quick
            test_fault_streaming_feed_clean_retry
        ] );
      ( "buffer-growth",
        [ Alcotest.test_case "unbounded session crosses 4095/4096/4097" `Slow
            test_streaming_unbounded_past_4096;
          Alcotest.test_case "max_horizon 4096 rejects the 4097th slot" `Slow
            test_streaming_hard_cap_4096
        ] )
    ]

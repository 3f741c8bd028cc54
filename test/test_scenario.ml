(* Scenario codec tests: a qcheck print/parse round-trip over randomly
   generated (valid) scenario definitions covering every workload
   source, daemon option, predictor, and fleet section — plus a table
   of rejection vectors asserting the strict parser refuses unknown
   fields, bad durations, out-of-range capacity fractions, malformed
   fault plans, and inconsistent sections with a useful message.

   Definitions are derived deterministically from a generated integer
   seed, so qcheck shrinking walks over seeds and every failure is
   replayable (QCHECK_SEED, as in test_props). *)

module Def = Scenario.Def
module Prng = Util.Prng

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let mk_test ?(count = 100) ~name prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count seed_gen prop)

(* --- random valid definitions ---------------------------------------- *)

let frac rng = Prng.float rng 1.0
let dur rng n = 1 + Prng.int rng n

let words =
  [| "flash"; "crowd"; "spot-price"; "p99"; "rack:a"; "50%"; "week_2"; "gpu" |]

let random_description rng =
  let n = Prng.int rng 5 in
  String.concat " "
    (List.init n (fun _ -> words.(Prng.int rng (Array.length words))))

let random_source rng =
  match Prng.int rng 8 with
  | 0 -> Def.Constant { level = frac rng }
  | 1 ->
      let base = frac rng in
      Def.Diurnal
        { period = dur rng 48; base;
          peak = base +. Prng.float rng (1. -. base);
          noise = frac rng }
  | 2 ->
      let base = frac rng in
      Def.Bursty
        { burst = dur rng 12; gap = dur rng 24;
          height = base +. Prng.float rng (1. -. base); base }
  | 3 -> Def.Spikes { base = frac rng; height = frac rng; rate = frac rng }
  | 4 ->
      let lo = Prng.float rng 0.5 in
      let hi = lo +. Prng.float rng (1. -. lo) in
      Def.Random_walk
        { start = lo +. Prng.float rng (hi -. lo); step = frac rng; lo; hi }
  | 5 ->
      let low = frac rng in
      Def.Mmpp
        { low; high = low +. Prng.float rng (1. -. low);
          switch_prob = frac rng; jitter = frac rng }
  | 6 ->
      let base = frac rng in
      Def.Weekly
        { day = dur rng 48;
          weekday_peak = base +. Prng.float rng (1. -. base);
          weekend_peak = base +. Prng.float rng (1. -. base);
          base; noise = frac rng }
  | _ -> Def.Jobs { rate = 0.1 +. Prng.float rng 10.; mean_volume = frac rng }

let random_plan rng =
  match Prng.int rng 3 with
  | 0 -> Def.Nth (dur rng 10)
  | 1 -> Def.Every (dur rng 20)
  | _ -> Def.Prob (0.01 +. Prng.float rng 0.99)

let random_faults rng =
  List.filter_map
    (fun site -> if Prng.int rng 2 = 0 then Some (site, random_plan rng) else None)
    Def.fault_sites

let random_daemon rng ~slots ~sessions =
  let log_dir = Prng.int rng 2 = 0 in
  let crash_after =
    if log_dir && Prng.int rng 2 = 0 && slots * sessions > 1 then
      Some (dur rng (slots * sessions - 1))
    else None
  in
  let faults =
    (* store.* sites are only valid with (log-dir true) *)
    List.filter
      (fun (site, _) -> log_dir || not (String.starts_with ~prefix:"store." site))
      (random_faults rng)
  in
  { Def.crash_after;
    audit = (if Prng.int rng 2 = 0 then Some (dur rng 100, dur rng 4) else None);
    metrics = Prng.int rng 2 = 0;
    faults;
    fault_seed = Prng.int rng 100;
    log_dir;
    cement_every = (if log_dir && Prng.int rng 2 = 0 then Some (dur rng 200) else None) }

let random_predictor rng =
  match Prng.int rng 5 with
  | 0 -> Def.Naive
  | 1 -> Def.Seasonal (dur rng 48)
  | 2 -> Def.Ewma
  | 3 -> Def.Holt
  | _ -> Def.Holt_winters (dur rng 48)

let base_names = Sim.Scenarios.names

let num_types base =
  match Sim.Scenarios.by_name base with
  | Some mk -> Model.Instance.num_types (mk (Some 1))
  | None -> invalid_arg ("unknown base " ^ base)

let random_def seed =
  let rng = Prng.create seed in
  let base = List.nth base_names (Prng.int rng (List.length base_names)) in
  let slots = dur rng 300 in
  let sessions = dur rng 8 in
  let lo = Prng.float rng 0.5 in
  { Def.name = Printf.sprintf "gen-%d" (Prng.int rng 100_000);
    description = random_description rng;
    base; alg = None; slots; sessions;
    batch = dur rng 32;
    seed = Prng.int rng 1_000;
    workload = List.init (dur rng 3) (fun _ -> random_source rng);
    clamp = (lo, lo +. Prng.float rng (1. -. lo));
    daemon = random_daemon rng ~slots ~sessions;
    race =
      (if Prng.int rng 2 = 0 then
         Some { Def.window = dur rng 16; predictor = random_predictor rng }
       else None);
    fleet =
      (if Prng.int rng 2 = 0 then
         let d = num_types base in
         Some
           { Def.budget = dur rng 100;
             capex = List.init d (fun _ -> Prng.float rng 20.) }
       else None);
    verify =
      { Def.oracle = Prng.int rng 2 = 0;
        ratio_bound = 1. +. Prng.float rng 9.;
        max_injected_retries = Prng.int rng 64 } }

(* --- properties ------------------------------------------------------- *)

(* Every generated definition must already be valid: the generator is
   the round-trip's precondition, so a validation failure here is a
   test bug, not shrink noise. *)
let prop_generator_valid seed =
  match Def.validate (random_def seed) with
  | Ok _ -> true
  | Error m -> QCheck2.Test.fail_reportf "generator produced invalid def: %s" m

let prop_roundtrip seed =
  let t = random_def seed in
  match Def.parse (Def.to_string t) with
  | Error m -> QCheck2.Test.fail_reportf "re-parse failed: %s" m
  | Ok t' ->
      if t' = t then true
      else
        QCheck2.Test.fail_reportf "round-trip changed the definition:\n%s\nvs\n%s"
          (Def.to_string t) (Def.to_string t')

(* Canonical printing is a fixpoint: print (parse (print t)) = print t. *)
let prop_print_fixpoint seed =
  let t = random_def seed in
  let s = Def.to_string t in
  match Def.parse s with
  | Error m -> QCheck2.Test.fail_reportf "re-parse failed: %s" m
  | Ok t' -> String.equal s (Def.to_string t')

let prop_plan_string_roundtrip seed =
  let rng = Prng.create seed in
  let p = random_plan rng in
  match Def.plan_of_string (Def.plan_to_string p) with
  | Ok p' -> p' = p
  | Error m -> QCheck2.Test.fail_reportf "plan round-trip failed: %s" m

(* Workload synthesis is deterministic in (def, session) and respects
   the clamp as a fraction of the declared capacity. *)
let prop_loads_deterministic_and_clamped seed =
  let t = random_def seed in
  let a = Def.loads t ~session_index:0 and b = Def.loads t ~session_index:0 in
  let cap =
    match Sim.Scenarios.by_name t.Def.base with
    | Some mk -> Def.declared_capacity (mk (Some 1))
    | None -> Alcotest.fail "generated def has unknown base"
  in
  let lo, hi = t.Def.clamp in
  Array.length a = t.Def.slots
  && a = b
  && Array.for_all
       (fun l -> l >= (lo *. cap) -. 1e-9 && l <= (hi *. cap) +. 1e-9)
       a

(* --- rejection vectors ------------------------------------------------ *)

let wrap body = Printf.sprintf "(scenario %s)" body

let minimal =
  "(name ok) (base cpu-gpu) (slots 10) (workload (constant (level 0.5)))"

(* Each vector: name, scenario text, substring the error must mention. *)
let rejections =
  [ "unknown top-level field",
    wrap (minimal ^ " (colour blue)"), "colour";
    "unknown workload source",
    wrap "(name ok) (base cpu-gpu) (slots 10) (workload (sawtooth (level 0.5)))",
    "sawtooth";
    "duplicate field",
    wrap (minimal ^ " (slots 20)"), "duplicate";
    "missing workload",
    wrap "(name ok) (base cpu-gpu) (slots 10)", "workload";
    "zero slots",
    wrap "(name ok) (base cpu-gpu) (slots 0) (workload (constant (level 0.5)))",
    "slots";
    "oversized slots",
    wrap
      "(name ok) (base cpu-gpu) (slots 100000) (workload (constant (level 0.5)))",
    "slots";
    "capacity fraction above 1",
    wrap "(name ok) (base cpu-gpu) (slots 10) (workload (constant (level 1.5)))",
    "level";
    "negative capacity fraction",
    wrap "(name ok) (base cpu-gpu) (slots 10) (workload (constant (level -0.1)))",
    "level";
    "diurnal base above peak",
    wrap
      "(name ok) (base cpu-gpu) (slots 10) (workload (diurnal (period 8) (base 0.9) (peak 0.2)))",
    "base";
    "unknown base",
    wrap "(name ok) (base warehouse) (slots 10) (workload (constant (level 0.5)))",
    "warehouse";
    "invalid name",
    wrap
      "(name bad/name) (base cpu-gpu) (slots 10) (workload (constant (level 0.5)))",
    "name";
    "crash-after without log-dir",
    wrap (minimal ^ " (daemon (crash-after 5))"), "log-dir";
    "crash-after never trips",
    wrap (minimal ^ " (daemon (crash-after 10) (log-dir true))"),
    "never trips";
    "checkpoint-every is no longer a daemon field",
    wrap (minimal ^ " (daemon (checkpoint-every 2))"), "checkpoint-every";
    "unknown fault site",
    wrap (minimal ^ " (daemon (faults (server.warp (nth 1))))"), "server.warp";
    "duplicate fault site",
    wrap
      (minimal
     ^ " (daemon (faults (server.step (nth 1)) (server.step (every 2))))"),
    "duplicate";
    "fault probability zero",
    wrap (minimal ^ " (daemon (faults (server.step (prob 0))))"), "prob";
    "malformed fault plan",
    wrap (minimal ^ " (daemon (faults (server.step (sometimes 3))))"), "plan";
    "unknown predictor",
    wrap (minimal ^ " (race (window 4) (predictor oracle))"), "predictor";
    "seasonal predictor without period",
    wrap (minimal ^ " (race (window 4) (predictor seasonal-naive))"), "period";
    "naive predictor with period",
    wrap (minimal ^ " (race (window 4) (predictor naive) (period 24))"),
    "period";
    "fleet capex arity",
    wrap (minimal ^ " (fleet (budget 10) (capex 1))"), "capex";
    "ratio bound below 1",
    wrap (minimal ^ " (verify (ratio-bound 0.5))"), "ratio-bound";
    "bursty base above height",
    wrap
      "(name ok) (base cpu-gpu) (slots 10) (workload (bursty (burst 2) (gap 3) (height 0.1) (base 0.6)))",
    "height";
    "description with nested list",
    wrap
      "(name ok) (description (a b)) (base cpu-gpu) (slots 10) (workload (constant (level 0.5)))",
    "description" ]

let contains haystack needle =
  let h = String.lowercase_ascii haystack and n = String.lowercase_ascii needle in
  let hl = String.length h and nl = String.length n in
  let rec scan i = i + nl <= hl && (String.sub h i nl = n || scan (i + 1)) in
  scan 0

let test_rejections () =
  List.iter
    (fun (label, text, needle) ->
      match Def.parse text with
      | Ok _ -> Alcotest.failf "%s: parser accepted %s" label text
      | Error m ->
          if not (contains m needle) then
            Alcotest.failf "%s: error %S does not mention %S" label m needle)
    rejections

(* A real clamp inversion must be rejected too (the vector above only
   covers the unknown-field path for the dummy). *)
let test_clamp_inversion () =
  let text =
    wrap
      "(name ok) (base cpu-gpu) (slots 10) (workload (constant (level 0.5)) (clamp (lo 0.8) (hi 0.2)))"
  in
  match Def.parse text with
  | Ok _ -> Alcotest.fail "parser accepted an inverted clamp"
  | Error m ->
      if not (String.length m > 0) then Alcotest.fail "empty error message"

let test_checked_in_files () =
  (* cwd is test/ under `dune runtest` but the project root under
     `dune exec test/...`; accept either. *)
  let dir =
    List.find_opt
      (fun d -> Sys.file_exists d && Sys.is_directory d)
      [ "scenarios"; "test/scenarios" ]
  in
  let files =
    match dir with
    | None -> []
    | Some d ->
        (* the README's serving quickstart runs the demo file *)
        Filename.concat (Filename.dirname d) "../examples/instances/demo_scenario.sexp"
        :: (Sys.readdir d |> Array.to_list
           |> List.filter (fun f -> Filename.check_suffix f ".sexp")
           |> List.map (Filename.concat d))
  in
  if files = [] then Alcotest.fail "no checked-in scenario files found";
  List.iter
    (fun f ->
      match Def.load_file f with
      | Ok def ->
          (* canonical print of a checked-in file must re-parse to the
             same definition *)
          (match Def.parse (Def.to_string def) with
          | Ok def' when def' = def -> ()
          | Ok _ -> Alcotest.failf "%s: canonical form drifted" f
          | Error m -> Alcotest.failf "%s: canonical form invalid: %s" f m)
      | Error m -> Alcotest.failf "%s: %s" f m)
    files

let () =
  Alcotest.run "scenario"
    [ ( "roundtrip",
        [ mk_test ~name:"generator produces valid defs" prop_generator_valid;
          mk_test ~name:"parse (print t) = t" prop_roundtrip;
          mk_test ~name:"canonical print is a fixpoint" prop_print_fixpoint;
          mk_test ~name:"fault plan string round-trip" prop_plan_string_roundtrip;
          mk_test ~count:50 ~name:"loads deterministic and clamped"
            prop_loads_deterministic_and_clamped ] );
      ( "rejection",
        [ Alcotest.test_case "strict parser rejection vectors" `Quick test_rejections;
          Alcotest.test_case "inverted clamp rejected" `Quick test_clamp_inversion;
          Alcotest.test_case "checked-in scenario files are canonical" `Quick
            test_checked_in_files ] ) ]

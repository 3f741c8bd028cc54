module S = Util.Sexp

type source =
  | Constant of { level : float }
  | Diurnal of { period : int; base : float; peak : float; noise : float }
  | Bursty of { burst : int; gap : int; height : float; base : float }
  | Spikes of { base : float; height : float; rate : float }
  | Random_walk of { start : float; step : float; lo : float; hi : float }
  | Mmpp of { low : float; high : float; switch_prob : float; jitter : float }
  | Weekly of {
      day : int;
      weekday_peak : float;
      weekend_peak : float;
      base : float;
      noise : float;
    }
  | Jobs of { rate : float; mean_volume : float }

type fault_plan = Nth of int | Every of int | Prob of float

type daemon = {
  crash_after : int option;
  audit : (int * int) option;
  metrics : bool;
  faults : (string * fault_plan) list;
  fault_seed : int;
  log_dir : bool;
  cement_every : int option;
}

type predictor = Naive | Seasonal of int | Ewma | Holt | Holt_winters of int

type race = { window : int; predictor : predictor }

type fleet = { budget : int; capex : float list }

type verify = {
  oracle : bool;
  ratio_bound : float;
  max_injected_retries : int;
}

type t = {
  name : string;
  description : string;
  base : string;
  alg : string option;  (* requested solver; None = daemon auto-pick *)
  slots : int;
  sessions : int;
  batch : int;
  seed : int;
  workload : source list;
  clamp : float * float;
  daemon : daemon;
  race : race option;
  fleet : fleet option;
  verify : verify;
}

let max_slots = 8192
let max_sessions = 256
let max_job_rate = 64.
let fault_sites =
  [ "server.accept"; "server.read"; "server.step"; "store.append"; "store.cement";
    "store.recover" ]

let default_daemon =
  { crash_after = None; audit = None; metrics = true;
    faults = []; fault_seed = 1; log_dir = false; cement_every = None }

let default_verify = { oracle = true; ratio_bound = 10.; max_injected_retries = 10_000 }

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

(* --- validation ------------------------------------------------------ *)

let check_frac ~ctx name v =
  if Float.is_finite v && v >= 0. && v <= 1. then Ok ()
  else err "%s: (%s %g) must be a capacity fraction in [0, 1]" ctx name v

let check_unit ~ctx name v =
  if Float.is_finite v && v >= 0. && v <= 1. then Ok ()
  else err "%s: (%s %g) must be in [0, 1]" ctx name v

let check_dur ~ctx name v =
  if v >= 1 && v <= max_slots then Ok ()
  else err "%s: (%s %d) must be a duration in [1, %d]" ctx name v max_slots

let check_pos ~ctx name v =
  if v >= 1 then Ok () else err "%s: (%s %d) must be >= 1" ctx name v

let validate_source ~ctx = function
  | Constant { level } -> check_frac ~ctx "level" level
  | Diurnal { period; base; peak; noise } ->
      let* () = check_dur ~ctx "period" period in
      let* () = check_frac ~ctx "base" base in
      let* () = check_frac ~ctx "peak" peak in
      let* () = check_unit ~ctx "noise" noise in
      if base <= peak then Ok () else err "%s: base (%g) must be <= peak (%g)" ctx base peak
  | Bursty { burst; gap; height; base } ->
      let* () = check_dur ~ctx "burst" burst in
      let* () = check_dur ~ctx "gap" gap in
      let* () = check_frac ~ctx "height" height in
      let* () = check_frac ~ctx "base" base in
      if base <= height then Ok ()
      else err "%s: base (%g) must be <= height (%g)" ctx base height
  | Spikes { base; height; rate } ->
      let* () = check_frac ~ctx "base" base in
      let* () = check_frac ~ctx "height" height in
      check_unit ~ctx "rate" rate
  | Random_walk { start; step; lo; hi } ->
      let* () = check_frac ~ctx "start" start in
      let* () = check_frac ~ctx "step" step in
      let* () = check_frac ~ctx "lo" lo in
      let* () = check_frac ~ctx "hi" hi in
      if lo > hi then err "%s: lo (%g) must be <= hi (%g)" ctx lo hi
      else if start < lo || start > hi then
        err "%s: start (%g) must lie in [lo, hi]" ctx start
      else Ok ()
  | Mmpp { low; high; switch_prob; jitter } ->
      let* () = check_frac ~ctx "low" low in
      let* () = check_frac ~ctx "high" high in
      let* () = check_unit ~ctx "switch-prob" switch_prob in
      let* () = check_unit ~ctx "jitter" jitter in
      if low <= high then Ok () else err "%s: low (%g) must be <= high (%g)" ctx low high
  | Weekly { day; weekday_peak; weekend_peak; base; noise } ->
      let* () = check_dur ~ctx "day" day in
      let* () = check_dur ~ctx "week" (7 * day) in
      let* () = check_frac ~ctx "weekday-peak" weekday_peak in
      let* () = check_frac ~ctx "weekend-peak" weekend_peak in
      let* () = check_frac ~ctx "base" base in
      let* () = check_unit ~ctx "noise" noise in
      if base <= weekday_peak && base <= weekend_peak then Ok ()
      else err "%s: base (%g) must be <= both peaks" ctx base
  | Jobs { rate; mean_volume } ->
      let* () =
        if Float.is_finite rate && rate > 0. && rate <= max_job_rate then Ok ()
        else err "%s: (rate %g) must be in (0, %g] jobs per slot" ctx rate max_job_rate
      in
      check_frac ~ctx "mean-volume" mean_volume

let validate_plan ~ctx site = function
  | Nth n -> if n >= 1 then Ok () else err "%s: %s: (nth %d) must be >= 1" ctx site n
  | Every n -> if n >= 1 then Ok () else err "%s: %s: (every %d) must be >= 1" ctx site n
  | Prob p ->
      if Float.is_finite p && p > 0. && p <= 1. then Ok ()
      else err "%s: %s: (prob %g) must be in (0, 1]" ctx site p

let validate_daemon ~slots ~sessions d =
  let ctx = "daemon" in
  let* () =
    match d.crash_after with
    | None -> Ok ()
    | Some n ->
        let* () = check_pos ~ctx "crash-after" n in
        if not d.log_dir then
          err "%s: (crash-after %d) requires (log-dir true)" ctx n
        else if n >= slots * sessions then
          err "%s: (crash-after %d) never trips: only %d slots are stepped" ctx n
            (slots * sessions)
        else Ok ()
  in
  let* () =
    match d.audit with
    | None -> Ok ()
    | Some (every, sample) ->
        let* () = check_pos ~ctx "audit/every" every in
        check_pos ~ctx "audit/sample" sample
  in
  let* () =
    match d.cement_every with
    | None -> Ok ()
    | Some n ->
        let* () = check_pos ~ctx "cement-every" n in
        if not d.log_dir then
          err "%s: (cement-every %d) requires (log-dir true)" ctx n
        else Ok ()
  in
  let* () =
    let store_fault_armed =
      List.exists (fun (site, _) -> String.length site >= 6 && String.sub site 0 6 = "store.") d.faults
    in
    if store_fault_armed && not d.log_dir then
      err "%s: store.* fault sites require (log-dir true)" ctx
    else Ok ()
  in
  let* () =
    let rec go seen = function
      | [] -> Ok ()
      | (site, plan) :: rest ->
          if not (List.mem site fault_sites) then
            err "%s: unknown fault site %s (known: %s)" ctx site
              (String.concat ", " fault_sites)
          else if List.mem site seen then err "%s: duplicate fault site %s" ctx site
          else
            let* () = validate_plan ~ctx site plan in
            go (site :: seen) rest
    in
    go [] d.faults
  in
  if d.fault_seed >= 0 then Ok () else err "%s: (fault-seed %d) must be >= 0" ctx d.fault_seed

let validate t =
  let* () =
    if Server.Protocol.valid_id t.name then Ok ()
    else err "scenario: (name %s) must be 1-64 chars of [A-Za-z0-9._:-]" t.name
  in
  let* base_instance =
    match Sim.Scenarios.by_name t.base with
    | Some mk -> Ok (mk (Some 1))
    | None ->
        err "scenario: unknown (base %s); known: %s" t.base
          (String.concat ", " Sim.Scenarios.names)
  in
  let* () = check_dur ~ctx:"scenario" "slots" t.slots in
  let* () =
    (* Ask the session layer up front, so an incompatible (alg ...) is a
       parse-time error, not a create-session failure mid-run. *)
    match t.alg with
    | None -> Ok ()
    | Some _ -> (
        match
          Server.Session.create ~id:"validate"
            { Server.Session.scenario = t.base; max_horizon = Some 1; alg = t.alg }
        with
        | Ok _ -> Ok ()
        | Error (_, m) -> err "scenario: (alg %s): %s" (Option.get t.alg) m)
  in
  let* () =
    if t.sessions >= 1 && t.sessions <= max_sessions then Ok ()
    else err "scenario: (sessions %d) must be in [1, %d]" t.sessions max_sessions
  in
  let* () =
    if t.batch >= 1 && t.batch <= 1024 then Ok ()
    else err "scenario: (batch %d) must be in [1, 1024]" t.batch
  in
  let* () = if t.seed >= 0 then Ok () else err "scenario: (seed %d) must be >= 0" t.seed in
  let* () =
    if t.workload = [] then err "scenario: (workload ...) needs at least one source"
    else Ok ()
  in
  let* () =
    let rec go i = function
      | [] -> Ok ()
      | src :: rest ->
          let* () = validate_source ~ctx:(Printf.sprintf "workload[%d]" i) src in
          go (i + 1) rest
    in
    go 0 t.workload
  in
  let* () =
    let lo, hi = t.clamp in
    let* () = check_frac ~ctx:"workload/clamp" "lo" lo in
    let* () = check_frac ~ctx:"workload/clamp" "hi" hi in
    if lo <= hi then Ok () else err "workload/clamp: lo (%g) must be <= hi (%g)" lo hi
  in
  let* () = validate_daemon ~slots:t.slots ~sessions:t.sessions t.daemon in
  let* () =
    match t.race with
    | None -> Ok ()
    | Some r ->
        let* () = check_dur ~ctx:"race" "window" r.window in
        (match r.predictor with
        | Naive | Ewma | Holt -> Ok ()
        | Seasonal p | Holt_winters p -> check_dur ~ctx:"race" "period" p)
  in
  let* () =
    match t.fleet with
    | None -> Ok ()
    | Some f ->
        let* () = check_pos ~ctx:"fleet" "budget" f.budget in
        let d = Model.Instance.num_types base_instance in
        if List.length f.capex <> d then
          err "fleet: (capex ...) needs one entry per base type (%d)" d
        else if List.for_all (fun c -> Float.is_finite c && c >= 0.) f.capex then Ok ()
        else err "fleet: capex entries must be finite and >= 0"
  in
  let* () =
    if t.verify.ratio_bound >= 1. then Ok ()
    else err "verify: (ratio-bound %g) must be >= 1" t.verify.ratio_bound
  in
  if t.verify.max_injected_retries >= 0 then Ok t
  else err "verify: (max-injected-retries %d) must be >= 0" t.verify.max_injected_retries

(* --- strict field access --------------------------------------------- *)

(* Every item of a section body must be a known [(key ...)] form, each key
   at most once; returns the section's lookup function.  This is what makes
   the codec reject typos instead of silently ignoring them. *)
let fields ~ctx allowed items =
  let rec go seen = function
    | [] -> Ok ()
    | S.List (S.Atom k :: _) :: rest ->
        if not (List.mem k allowed) then
          err "%s: unknown field (%s ...); known: %s" ctx k (String.concat ", " allowed)
        else if List.mem k seen then err "%s: duplicate field (%s ...)" ctx k
        else go (k :: seen) rest
    | bad :: _ -> err "%s: expected (field value ...), got %s" ctx (S.to_string bad)
  in
  let* () = go [] items in
  Ok (fun key -> S.assoc key items)

let one ~ctx key = function
  | [ v ] -> Ok v
  | _ -> err "%s: (%s ...) takes exactly one value" ctx key

let req_int ~ctx get key =
  match get key with
  | None -> err "%s: missing (%s N)" ctx key
  | Some args ->
      let* v = one ~ctx key args in
      (match S.int_atom v with
      | Some n -> Ok n
      | None -> err "%s: (%s %s) is not an integer" ctx key (S.to_string v))

let opt_int ~ctx get key =
  match get key with
  | None -> Ok None
  | Some args ->
      let* v = one ~ctx key args in
      (match S.int_atom v with
      | Some n -> Ok (Some n)
      | None -> err "%s: (%s %s) is not an integer" ctx key (S.to_string v))

let req_float ~ctx get key =
  match get key with
  | None -> err "%s: missing (%s X)" ctx key
  | Some args ->
      let* v = one ~ctx key args in
      (match S.float_atom v with
      | Some x -> Ok x
      | None -> err "%s: (%s %s) is not a number" ctx key (S.to_string v))

let opt_float ~ctx ~default get key =
  match get key with
  | None -> Ok default
  | Some args ->
      let* v = one ~ctx key args in
      (match S.float_atom v with
      | Some x -> Ok x
      | None -> err "%s: (%s %s) is not a number" ctx key (S.to_string v))

let opt_bool ~ctx ~default get key =
  match get key with
  | None -> Ok default
  | Some args -> (
      let* v = one ~ctx key args in
      match S.atom v with
      | Some "true" -> Ok true
      | Some "false" -> Ok false
      | _ -> err "%s: (%s %s) is not a boolean" ctx key (S.to_string v))

let req_atom ~ctx get key =
  match get key with
  | None -> err "%s: missing (%s ...)" ctx key
  | Some args -> (
      let* v = one ~ctx key args in
      match S.atom v with
      | Some a -> Ok a
      | None -> err "%s: (%s ...) value must be an atom" ctx key)

(* --- parsing ---------------------------------------------------------- *)

let parse_source = function
  | S.List (S.Atom "constant" :: body) ->
      let ctx = "workload/constant" in
      let* get = fields ~ctx [ "level" ] body in
      let* level = req_float ~ctx get "level" in
      Ok (Constant { level })
  | S.List (S.Atom "diurnal" :: body) ->
      let ctx = "workload/diurnal" in
      let* get = fields ~ctx [ "period"; "base"; "peak"; "noise" ] body in
      let* period = req_int ~ctx get "period" in
      let* base = req_float ~ctx get "base" in
      let* peak = req_float ~ctx get "peak" in
      let* noise = opt_float ~ctx ~default:0. get "noise" in
      Ok (Diurnal { period; base; peak; noise })
  | S.List (S.Atom "bursty" :: body) ->
      let ctx = "workload/bursty" in
      let* get = fields ~ctx [ "burst"; "gap"; "height"; "base" ] body in
      let* burst = req_int ~ctx get "burst" in
      let* gap = req_int ~ctx get "gap" in
      let* height = req_float ~ctx get "height" in
      let* base = opt_float ~ctx ~default:0. get "base" in
      Ok (Bursty { burst; gap; height; base })
  | S.List (S.Atom "spikes" :: body) ->
      let ctx = "workload/spikes" in
      let* get = fields ~ctx [ "base"; "height"; "rate" ] body in
      let* base = opt_float ~ctx ~default:0. get "base" in
      let* height = req_float ~ctx get "height" in
      let* rate = req_float ~ctx get "rate" in
      Ok (Spikes { base; height; rate })
  | S.List (S.Atom "random-walk" :: body) ->
      let ctx = "workload/random-walk" in
      let* get = fields ~ctx [ "start"; "step"; "lo"; "hi" ] body in
      let* start = req_float ~ctx get "start" in
      let* step = req_float ~ctx get "step" in
      let* lo = req_float ~ctx get "lo" in
      let* hi = req_float ~ctx get "hi" in
      Ok (Random_walk { start; step; lo; hi })
  | S.List (S.Atom "mmpp" :: body) ->
      let ctx = "workload/mmpp" in
      let* get = fields ~ctx [ "low"; "high"; "switch-prob"; "jitter" ] body in
      let* low = req_float ~ctx get "low" in
      let* high = req_float ~ctx get "high" in
      let* switch_prob = req_float ~ctx get "switch-prob" in
      let* jitter = opt_float ~ctx ~default:0. get "jitter" in
      Ok (Mmpp { low; high; switch_prob; jitter })
  | S.List (S.Atom "weekly" :: body) ->
      let ctx = "workload/weekly" in
      let* get =
        fields ~ctx [ "day"; "weekday-peak"; "weekend-peak"; "base"; "noise" ] body
      in
      let* day = req_int ~ctx get "day" in
      let* weekday_peak = req_float ~ctx get "weekday-peak" in
      let* weekend_peak = req_float ~ctx get "weekend-peak" in
      let* base = req_float ~ctx get "base" in
      let* noise = opt_float ~ctx ~default:0. get "noise" in
      Ok (Weekly { day; weekday_peak; weekend_peak; base; noise })
  | S.List (S.Atom "jobs" :: body) ->
      let ctx = "workload/jobs" in
      let* get = fields ~ctx [ "rate"; "mean-volume" ] body in
      let* rate = req_float ~ctx get "rate" in
      let* mean_volume = req_float ~ctx get "mean-volume" in
      Ok (Jobs { rate; mean_volume })
  | S.List (S.Atom k :: _) -> err "workload: unknown source (%s ...)" k
  | bad -> err "workload: expected a source form, got %s" (S.to_string bad)

let parse_fault = function
  | S.List [ S.Atom site; S.List [ S.Atom kind; v ] ] -> (
      match kind, S.int_atom v, S.float_atom v with
      | "nth", Some n, _ -> Ok (site, Nth n)
      | "every", Some n, _ -> Ok (site, Every n)
      | "prob", _, Some p -> Ok (site, Prob p)
      | _ -> err "daemon/faults: %s: bad plan (%s %s)" site kind (S.to_string v))
  | bad -> err "daemon/faults: expected (site (nth|every|prob V)), got %s" (S.to_string bad)

let parse_daemon body =
  let ctx = "daemon" in
  let* get =
    fields ~ctx
      [ "crash-after"; "audit"; "metrics"; "faults"; "fault-seed"; "log-dir";
        "cement-every" ]
      body
  in
  let* crash_after = opt_int ~ctx get "crash-after" in
  let* audit =
    match get "audit" with
    | None -> Ok None
    | Some items ->
        let ctx = "daemon/audit" in
        let* aget = fields ~ctx [ "every"; "sample" ] items in
        let* every = req_int ~ctx aget "every" in
        let* sample = req_int ~ctx aget "sample" in
        Ok (Some (every, sample))
  in
  let* metrics = opt_bool ~ctx ~default:true get "metrics" in
  let* faults =
    match get "faults" with None -> Ok [] | Some items -> map_result parse_fault items
  in
  let* fault_seed =
    let* v = opt_int ~ctx get "fault-seed" in
    Ok (Option.value v ~default:default_daemon.fault_seed)
  in
  let* log_dir = opt_bool ~ctx ~default:false get "log-dir" in
  let* cement_every = opt_int ~ctx get "cement-every" in
  Ok
    { crash_after; audit; metrics; faults; fault_seed; log_dir; cement_every }

let predictor_names =
  [ "naive"; "seasonal-naive"; "ewma"; "holt"; "holt-winters" ]

let parse_race body =
  let ctx = "race" in
  let* get = fields ~ctx [ "window"; "predictor"; "period" ] body in
  let* window = req_int ~ctx get "window" in
  let* name = req_atom ~ctx get "predictor" in
  let* period = opt_int ~ctx get "period" in
  let needs_period k =
    match period with
    | Some p -> Ok p
    | None -> err "%s: predictor %s needs (period N)" ctx k
  in
  let no_period k v =
    match period with
    | None -> Ok v
    | Some _ -> err "%s: predictor %s takes no (period N)" ctx k
  in
  let* predictor =
    match name with
    | "naive" -> no_period name Naive
    | "ewma" -> no_period name Ewma
    | "holt" -> no_period name Holt
    | "seasonal-naive" ->
        let* p = needs_period name in
        Ok (Seasonal p)
    | "holt-winters" ->
        let* p = needs_period name in
        Ok (Holt_winters p)
    | _ ->
        err "%s: unknown predictor %s; known: %s" ctx name
          (String.concat ", " predictor_names)
  in
  Ok { window; predictor }

let parse_fleet body =
  let ctx = "fleet" in
  let* get = fields ~ctx [ "budget"; "capex" ] body in
  let* budget = req_int ~ctx get "budget" in
  let* capex =
    match get "capex" with
    | None -> err "%s: missing (capex X ...)" ctx
    | Some args ->
        map_result
          (fun v ->
            match S.float_atom v with
            | Some x -> Ok x
            | None -> err "%s: capex entry %s is not a number" ctx (S.to_string v))
          args
  in
  Ok { budget; capex }

let parse_verify body =
  let ctx = "verify" in
  let* get = fields ~ctx [ "oracle"; "ratio-bound"; "max-injected-retries" ] body in
  let* oracle = opt_bool ~ctx ~default:true get "oracle" in
  let* ratio_bound = req_float ~ctx get "ratio-bound" in
  let* max_injected_retries =
    let* v = opt_int ~ctx get "max-injected-retries" in
    Ok (Option.value v ~default:default_verify.max_injected_retries)
  in
  Ok { oracle; ratio_bound; max_injected_retries }

let of_sexp = function
  | S.List (S.Atom "scenario" :: body) ->
      let ctx = "scenario" in
      let* get =
        fields ~ctx
          [ "name"; "description"; "base"; "alg"; "slots"; "sessions"; "batch";
            "seed"; "workload"; "daemon"; "race"; "fleet"; "verify" ]
          body
      in
      let* name = req_atom ~ctx get "name" in
      let* description =
        (* free text: a sequence of atoms joined by single spaces (the
           canonical printer emits one percent-quoted atom) *)
        match get "description" with
        | None -> Ok ""
        | Some args ->
            let* words =
              map_result
                (fun v ->
                  match S.atom v with
                  | Some a -> Ok (Server.Protocol.unquote a)
                  | None -> err "%s: (description ...) values must be atoms" ctx)
                args
            in
            Ok (String.concat " " words)
      in
      let* base = req_atom ~ctx get "base" in
      let* alg =
        match get "alg" with
        | None -> Ok None
        | Some args -> (
            let* v = one ~ctx "alg" args in
            match S.atom v with
            | Some a -> Ok (Some a)
            | None -> err "%s: (alg ...) value must be an atom" ctx)
      in
      let* slots = req_int ~ctx get "slots" in
      let* sessions =
        let* v = opt_int ~ctx get "sessions" in
        Ok (Option.value v ~default:1)
      in
      let* batch =
        let* v = opt_int ~ctx get "batch" in
        Ok (Option.value v ~default:8)
      in
      let* seed =
        let* v = opt_int ~ctx get "seed" in
        Ok (Option.value v ~default:1)
      in
      let* workload, clamp =
        match get "workload" with
        | None -> err "%s: missing (workload ...)" ctx
        | Some items ->
            let clamps, srcs =
              List.partition
                (function S.List (S.Atom "clamp" :: _) -> true | _ -> false)
                items
            in
            let* clamp =
              match clamps with
              | [] -> Ok (0., 1.)
              | [ S.List (_ :: cbody) ] ->
                  let ctx = "workload/clamp" in
                  let* cget = fields ~ctx [ "lo"; "hi" ] cbody in
                  let* lo = opt_float ~ctx ~default:0. cget "lo" in
                  let* hi = opt_float ~ctx ~default:1. cget "hi" in
                  Ok (lo, hi)
              | _ -> err "workload: duplicate (clamp ...)"
            in
            let* sources = map_result parse_source srcs in
            Ok (sources, clamp)
      in
      let* daemon =
        match get "daemon" with None -> Ok default_daemon | Some b -> parse_daemon b
      in
      let* race =
        match get "race" with
        | None -> Ok None
        | Some b ->
            let* r = parse_race b in
            Ok (Some r)
      in
      let* fleet =
        match get "fleet" with
        | None -> Ok None
        | Some b ->
            let* f = parse_fleet b in
            Ok (Some f)
      in
      let* verify =
        match get "verify" with None -> Ok default_verify | Some b -> parse_verify b
      in
      validate
        { name; description; base; alg; slots; sessions; batch; seed; workload;
          clamp; daemon; race; fleet; verify }
  | S.List (S.Atom k :: _) -> err "expected (scenario ...), got (%s ...)" k
  | bad -> err "expected (scenario ...), got %s" (S.to_string bad)

(* --- printing --------------------------------------------------------- *)

(* Shortest decimal that round-trips (so parse (to_string t) = t exactly). *)
let fstr v =
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let fat v = S.Atom (fstr v)
let iat n = S.Atom (string_of_int n)
let ffield k v = S.List [ S.Atom k; fat v ]
let ifield k v = S.List [ S.Atom k; iat v ]
let bfield k v = S.List [ S.Atom k; S.Atom (string_of_bool v) ]

let source_to_sexp = function
  | Constant { level } -> S.List [ S.Atom "constant"; ffield "level" level ]
  | Diurnal { period; base; peak; noise } ->
      S.List
        [ S.Atom "diurnal"; ifield "period" period; ffield "base" base;
          ffield "peak" peak; ffield "noise" noise ]
  | Bursty { burst; gap; height; base } ->
      S.List
        [ S.Atom "bursty"; ifield "burst" burst; ifield "gap" gap;
          ffield "height" height; ffield "base" base ]
  | Spikes { base; height; rate } ->
      S.List
        [ S.Atom "spikes"; ffield "base" base; ffield "height" height;
          ffield "rate" rate ]
  | Random_walk { start; step; lo; hi } ->
      S.List
        [ S.Atom "random-walk"; ffield "start" start; ffield "step" step;
          ffield "lo" lo; ffield "hi" hi ]
  | Mmpp { low; high; switch_prob; jitter } ->
      S.List
        [ S.Atom "mmpp"; ffield "low" low; ffield "high" high;
          ffield "switch-prob" switch_prob; ffield "jitter" jitter ]
  | Weekly { day; weekday_peak; weekend_peak; base; noise } ->
      S.List
        [ S.Atom "weekly"; ifield "day" day; ffield "weekday-peak" weekday_peak;
          ffield "weekend-peak" weekend_peak; ffield "base" base;
          ffield "noise" noise ]
  | Jobs { rate; mean_volume } ->
      S.List [ S.Atom "jobs"; ffield "rate" rate; ffield "mean-volume" mean_volume ]

let plan_to_sexp = function
  | Nth n -> S.List [ S.Atom "nth"; iat n ]
  | Every n -> S.List [ S.Atom "every"; iat n ]
  | Prob p -> S.List [ S.Atom "prob"; fat p ]

let daemon_to_sexp d =
  S.List
    (S.Atom "daemon"
    :: List.concat
         [ (match d.crash_after with None -> [] | Some n -> [ ifield "crash-after" n ]);
           (match d.audit with
           | None -> []
           | Some (every, sample) ->
               [ S.List [ S.Atom "audit"; ifield "every" every; ifield "sample" sample ] ]);
           [ bfield "metrics" d.metrics ];
           (match d.faults with
           | [] -> []
           | fs ->
               [ S.List
                   (S.Atom "faults"
                   :: List.map
                        (fun (site, plan) -> S.List [ S.Atom site; plan_to_sexp plan ])
                        fs) ]);
           [ ifield "fault-seed" d.fault_seed ];
           (if d.log_dir then [ bfield "log-dir" true ] else []);
           (match d.cement_every with
           | None -> []
           | Some n -> [ ifield "cement-every" n ]) ])

let race_to_sexp r =
  let name, period =
    match r.predictor with
    | Naive -> "naive", None
    | Seasonal p -> "seasonal-naive", Some p
    | Ewma -> "ewma", None
    | Holt -> "holt", None
    | Holt_winters p -> "holt-winters", Some p
  in
  S.List
    (S.Atom "race" :: ifield "window" r.window
    :: S.List [ S.Atom "predictor"; S.Atom name ]
    :: (match period with None -> [] | Some p -> [ ifield "period" p ]))

let fleet_to_sexp f =
  S.List
    [ S.Atom "fleet"; ifield "budget" f.budget;
      S.List (S.Atom "capex" :: List.map fat f.capex) ]

let verify_to_sexp v =
  S.List
    [ S.Atom "verify"; bfield "oracle" v.oracle; ffield "ratio-bound" v.ratio_bound;
      ifield "max-injected-retries" v.max_injected_retries ]

let to_sexp t =
  let lo, hi = t.clamp in
  S.List
    (S.Atom "scenario"
    :: List.concat
         [ [ S.List [ S.Atom "name"; S.Atom t.name ] ];
           (if t.description = "" then []
            else [ S.List [ S.Atom "description"; S.Atom (Server.Protocol.quote t.description) ] ]);
           [ S.List [ S.Atom "base"; S.Atom t.base ] ];
           (match t.alg with
           | None -> []
           | Some a -> [ S.List [ S.Atom "alg"; S.Atom a ] ]);
           [ ifield "slots" t.slots;
             ifield "sessions" t.sessions;
             ifield "batch" t.batch;
             ifield "seed" t.seed;
             S.List
               (S.Atom "workload"
               :: (List.map source_to_sexp t.workload
                  @ [ S.List [ S.Atom "clamp"; ffield "lo" lo; ffield "hi" hi ] ]));
             daemon_to_sexp t.daemon ];
           (match t.race with None -> [] | Some r -> [ race_to_sexp r ]);
           (match t.fleet with None -> [] | Some f -> [ fleet_to_sexp f ]);
           [ verify_to_sexp t.verify ] ])

let parse text =
  let* sx = S.parse text in
  of_sexp sx

let to_string t = S.to_string (to_sexp t)

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> (
      match parse text with
      | Ok t -> Ok t
      | Error m -> Error (path ^ ": " ^ m))

(* --- fault-plan CLI syntax -------------------------------------------- *)

let plan_to_string = function
  | Nth n -> "nth:" ^ string_of_int n
  | Every n -> "every:" ^ string_of_int n
  | Prob p -> "prob:" ^ fstr p

let plan_of_string s =
  let bad () = err "bad fault plan %S (want nth:N, every:N or prob:P)" s in
  match String.index_opt s ':' with
  | None -> bad ()
  | Some i -> (
      let kind = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      match kind, int_of_string_opt v, float_of_string_opt v with
      | "nth", Some n, _ when n >= 1 -> Ok (Nth n)
      | "every", Some n, _ when n >= 1 -> Ok (Every n)
      | "prob", _, Some p when p > 0. && p <= 1. -> Ok (Prob p)
      | _ -> bad ())

(* --- workload synthesis ----------------------------------------------- *)

let declared_capacity (inst : Model.Instance.t) =
  Array.fold_left
    (fun acc (st : Model.Server_type.t) -> acc +. (float_of_int st.count *. st.cap))
    0. inst.types

let loads t ~session_index =
  let mk =
    match Sim.Scenarios.by_name t.base with
    | Some mk -> mk
    | None -> invalid_arg ("Scenario.Def.loads: unknown base " ^ t.base)
  in
  let inst = mk (Some t.slots) in
  let cap = declared_capacity inst in
  let horizon = t.slots in
  (* Traces are deterministic in (seed, session); each source draws from
     its own split stream so adding a source never perturbs the others. *)
  let rng = Util.Prng.create ((t.seed * 1_000_003) + session_index) in
  let eval src =
    let rng = Util.Prng.split rng in
    match src with
    | Constant { level } -> Sim.Workload.constant ~horizon ~level:(level *. cap)
    | Diurnal { period; base; peak; noise } ->
        Sim.Workload.diurnal ~noise ~rng ~horizon ~period ~base:(base *. cap)
          ~peak:(peak *. cap) ()
    | Bursty { burst; gap; height; base } ->
        Sim.Workload.bursty ~horizon ~burst ~gap ~height:(height *. cap)
          ~base:(base *. cap) ()
    | Spikes { base; height; rate } ->
        Sim.Workload.spikes ~rng ~horizon ~base:(base *. cap) ~height:(height *. cap)
          ~rate
    | Random_walk { start; step; lo; hi } ->
        Sim.Workload.random_walk ~rng ~horizon ~start:(start *. cap)
          ~step:(step *. cap) ~lo:(lo *. cap) ~hi:(hi *. cap)
    | Mmpp { low; high; switch_prob; jitter } ->
        Sim.Workload.mmpp ~rng ~horizon ~low:(low *. cap) ~high:(high *. cap)
          ~switch_prob ~jitter
    | Weekly { day; weekday_peak; weekend_peak; base; noise } ->
        let week = 7 * day in
        let weeks = max 1 ((horizon + week - 1) / week) in
        let full =
          Sim.Workload.weekly ~rng ~noise ~weeks ~day
            ~weekday_peak:(weekday_peak *. cap) ~weekend_peak:(weekend_peak *. cap)
            ~base:(base *. cap) ()
        in
        Array.sub full 0 horizon
    | Jobs { rate; mean_volume } ->
        Dcsim.Job_trace.volumes
          (Dcsim.Job_trace.poisson ~rng ~horizon ~rate
             ~mean_volume:(mean_volume *. cap))
          ~horizon
  in
  let sum =
    List.fold_left
      (fun acc src -> Sim.Workload.add acc (eval src))
      (Array.make horizon 0.) t.workload
  in
  let lo, hi = t.clamp in
  Sim.Workload.clamp ~lo:(lo *. cap) ~hi:(hi *. cap) sum

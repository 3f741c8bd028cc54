type t = {
  make_inst : loads:float array -> Model.Instance.t;  (* re-applied on growth *)
  mutable inst : Model.Instance.t;  (* built over the mutable load buffer *)
  mutable loads : float array;
  engine : Prefix_opt.t;
  stepper : Stepper.t;
  capacity : float;
  hard_cap : int option;
  mutable clock : int;
  mutable current : Model.Config.t;
}

let c_grows = Obs.Counter.make "streaming.buffer_grows"

(* Small enough that short sessions stay cheap; doubling reaches any
   horizon in logarithmically many regrows. *)
let initial_capacity = 64

let build ~max_horizon ~types ~make_inst ~make_stepper =
  (match max_horizon with
  | Some m when m < 1 -> invalid_arg "Streaming: max_horizon must be >= 1"
  | Some _ | None -> ());
  let cap0 =
    match max_horizon with
    | Some m -> min m initial_capacity
    | None -> initial_capacity
  in
  (* The instance reads this buffer; slot t is written before the engine
     ever evaluates it, so the mutation is invisible to the algorithms. *)
  let loads = Array.make cap0 0. in
  let inst = make_inst ~loads in
  let capacity =
    Array.fold_left
      (fun acc st ->
        acc +. (float_of_int st.Model.Server_type.count *. st.Model.Server_type.cap))
      0. types
  in
  { make_inst;
    inst;
    loads;
    engine = Prefix_opt.create inst;
    stepper = make_stepper inst;
    capacity;
    hard_cap = max_horizon;
    clock = 0;
    current = Model.Config.zero (Array.length types) }

let alg_a ?max_horizon ~types ~fns () =
  build ~max_horizon ~types
    ~make_inst:(fun ~loads -> Model.Instance.make_static ~types ~load:loads ~fns ())
    ~make_stepper:Stepper.alg_a

let alg_b ?max_horizon ~types ~cost () =
  build ~max_horizon ~types
    ~make_inst:(fun ~loads -> Model.Instance.make ~types ~load:loads ~cost ())
    ~make_stepper:Stepper.alg_b

let det2d ?max_horizon ~types ~cost () =
  build ~max_horizon ~types
    ~make_inst:(fun ~loads -> Model.Instance.make ~types ~load:loads ~cost ())
    ~make_stepper:Stepper.alg_det2d

let homog ?max_horizon ~types ~fns () =
  build ~max_horizon ~types
    ~make_inst:(fun ~loads -> Model.Instance.make_static ~types ~load:loads ~fns ())
    ~make_stepper:Stepper.alg_homog

(* Grow the load buffer geometrically so it can absorb [needed] slots,
   rebuilding the instance over the larger buffer and rebinding the
   engine and stepper to it — their DP layer and power-down bookkeeping
   carry over bit-identically.  Raises when [needed] exceeds the
   session's optional hard cap. *)
let ensure_capacity t ~needed =
  (match t.hard_cap with
  | Some cap when needed > cap ->
      invalid_arg "Streaming.feed: session horizon exhausted"
  | Some _ | None -> ());
  if needed > Array.length t.loads then begin
    let target = max needed (2 * Array.length t.loads) in
    let target =
      match t.hard_cap with Some cap -> min cap target | None -> target
    in
    let loads = Array.make target 0. in
    Array.blit t.loads 0 loads 0 (Array.length t.loads);
    Obs.Counter.incr c_grows;
    t.loads <- loads;
    t.inst <- t.make_inst ~loads;
    Prefix_opt.rebind t.engine t.inst;
    Stepper.rebind t.stepper t.inst
  end

type feed_error =
  | Bad_volume of float
  | Over_capacity of { volume : float; capacity : float }
  | Horizon_exhausted of { fed : int; cap : int }

let feed_error_to_string = function
  | Bad_volume v -> Printf.sprintf "volume %g must be finite and non-negative" v
  | Over_capacity { volume; capacity } ->
      Printf.sprintf "volume %g exceeds the fleet capacity %g" volume capacity
  | Horizon_exhausted { fed; cap } ->
      Printf.sprintf "session horizon exhausted (%d slots fed, hard cap %d)" fed cap

let feed_result t volume =
  (* Fault site first: an injected failure leaves the session state
     untouched, so the caller can retry the same slot.  Every
     validation below also fires before any mutation, so an [Error]
     leaves the session alive and fed-able. *)
  Util.Faultinj.hit "streaming.feed";
  if volume < 0. || not (Float.is_finite volume) then Error (Bad_volume volume)
  else if volume > t.capacity +. 1e-9 then
    Error (Over_capacity { volume; capacity = t.capacity })
  else
    match t.hard_cap with
    | Some cap when t.clock >= cap -> Error (Horizon_exhausted { fed = t.clock; cap })
    | Some _ | None ->
        ensure_capacity t ~needed:(t.clock + 1);
        let time = t.clock in
        t.loads.(time) <- volume;
        let { Prefix_opt.last = hat; _ } = Prefix_opt.step t.engine in
        let x = Stepper.step t.stepper ~time ~hat in
        t.clock <- time + 1;
        t.current <- x;
        Ok (Array.copy x)

let feed t volume =
  match feed_result t volume with
  | Ok x -> x
  | Error e -> invalid_arg ("Streaming.feed: " ^ feed_error_to_string e)

let fed t = t.clock
let config t = Array.copy t.current
let loads_from t ~from_ =
  let from_ = max 0 (min from_ t.clock) in
  Array.sub t.loads from_ (t.clock - from_)

let loads t = loads_from t ~from_:0

let decisions ?until t ~from_ = Stepper.decisions ?until t.stepper ~from_

module S = Util.Sexp

let save t =
  S.List
    [ S.Atom "streaming";
      S.List [ S.Atom "clock"; S.Atom (string_of_int t.clock) ];
      Util.Snapshot.float_array_field "loads" (Array.sub t.loads 0 t.clock);
      Util.Snapshot.int_array_field "current" t.current;
      S.List [ S.Atom "engine"; Prefix_opt.save t.engine ];
      S.List [ S.Atom "stepper"; Stepper.save t.stepper ] ]

let restore t sexp =
  match sexp with
  | S.List (S.Atom "streaming" :: fields) -> (
      let sub name =
        match S.assoc name fields with
        | Some [ payload ] -> Ok payload
        | Some _ | None -> Error (Printf.sprintf "streaming: missing field %s" name)
      in
      match
        ( Util.Snapshot.int_of_field fields "clock",
          Util.Snapshot.floats_of_field fields "loads",
          Util.Snapshot.ints_of_field fields "current",
          sub "engine",
          sub "stepper" )
      with
      | Error m, _, _, _, _
      | _, Error m, _, _, _
      | _, _, Error m, _, _
      | _, _, _, Error m, _
      | _, _, _, _, Error m -> Error m
      | Ok clock, Ok loads, Ok current, Ok engine, Ok stepper ->
          if clock < 0 || Array.length loads <> clock then
            Error "streaming: loads do not match the clock"
          else if Array.length current <> Array.length t.current then
            Error "streaming: dimension mismatch"
          else if
            match t.hard_cap with Some cap -> clock > cap | None -> false
          then Error "streaming: snapshot exceeds this session's max_horizon"
          else begin
            ensure_capacity t ~needed:clock;
            Array.blit loads 0 t.loads 0 clock;
            match
              ( Prefix_opt.restore t.engine engine,
                Stepper.restore t.stepper stepper )
            with
            | Error m, _ | _, Error m -> Error m
            | Ok (), Ok () when Prefix_opt.time t.engine <> clock ->
                Error "streaming: engine clock does not match the session clock"
            | Ok (), Ok () when Stepper.time t.stepper <> clock ->
                Error "streaming: stepper clock does not match the session clock"
            | Ok (), Ok () ->
                t.clock <- clock;
                t.current <- Array.copy current;
                Ok ()
          end)
  | S.Atom _ | S.List _ -> Error "streaming: unexpected payload shape"

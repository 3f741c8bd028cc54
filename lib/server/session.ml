module S = Util.Sexp
module Snap = Util.Snapshot

type spec = {
  scenario : string;
  max_horizon : int option;
  alg : string option;  (* requested solver; None = pick from the scenario *)
}

type t = {
  id : string;
  spec : spec;
  alg : string;
  streaming : Online.Streaming.t;
}

(* The scenario supplies types and cost structure only; its canned
   loads are ignored (the client streams its own) and so is any
   per-slot availability — a served fleet runs at its declared counts.
   The cost clock is clamped into the scenario's horizon
   ({!Model.Instance.with_loads}), so sessions can stream past it. *)
let build_streaming spec =
  match Sim.Scenarios.by_name spec.scenario with
  | None -> Error (Protocol.Unknown_scenario, "unknown scenario " ^ spec.scenario)
  | Some mk -> (
      match spec.max_horizon with
      | Some h when h < 1 ->
          Error (Protocol.Bad_request, "max-horizon must be >= 1")
      | _ -> (
          let inst = mk None in
          let types = inst.Model.Instance.types in
          let fns () =
            Array.init (Array.length types) (fun j ->
                inst.Model.Instance.cost ~time:0 ~typ:j)
          in
          let cost = (Model.Instance.with_loads inst [||]).Model.Instance.cost in
          match spec.alg with
          | None ->
              if inst.Model.Instance.time_independent then
                Ok
                  ( "a",
                    Online.Streaming.alg_a ?max_horizon:spec.max_horizon ~types
                      ~fns:(fns ()) () )
              else
                Ok
                  ( "b",
                    Online.Streaming.alg_b ?max_horizon:spec.max_horizon ~types ~cost
                      () )
          | Some "a" ->
              if inst.Model.Instance.time_independent then
                Ok
                  ( "a",
                    Online.Streaming.alg_a ?max_horizon:spec.max_horizon ~types
                      ~fns:(fns ()) () )
              else
                Error
                  ( Protocol.Bad_request,
                    "algorithm a requires time-independent costs" )
          | Some "b" ->
              Ok
                ("b", Online.Streaming.alg_b ?max_horizon:spec.max_horizon ~types ~cost ())
          | Some "det2d" ->
              if Online.Alg_det2d.applicable inst then
                Ok
                  ( "det2d",
                    Online.Streaming.det2d ?max_horizon:spec.max_horizon ~types ~cost
                      () )
              else
                Error
                  ( Protocol.Bad_request,
                    "algorithm det2d requires load-independent costs" )
          | Some "homog" ->
              if not inst.Model.Instance.time_independent then
                Error
                  ( Protocol.Bad_request,
                    "algorithm homog requires time-independent costs when served" )
              else if Online.Alg_homog.applicable inst then
                Ok
                  ( "homog",
                    Online.Streaming.homog ?max_horizon:spec.max_horizon ~types
                      ~fns:(fns ()) () )
              else
                Error
                  ( Protocol.Bad_request,
                    "algorithm homog requires coinciding server types" )
          | Some other ->
              Error (Protocol.Bad_request, "unknown algorithm " ^ other)))

let create ~id spec =
  match build_streaming spec with
  | Error _ as e -> e
  | Ok (alg, streaming) ->
      Ok { id; spec; alg; streaming }

let id t = t.id
let spec t = t.spec
let alg t = t.alg
let num_types t = Array.length (Online.Streaming.config t.streaming)
let fed t = Online.Streaming.fed t.streaming

let feed_error_code :
    Online.Streaming.feed_error -> Protocol.error_code = function
  | Online.Streaming.Bad_volume _ -> Protocol.Bad_volume
  | Online.Streaming.Over_capacity _ -> Protocol.Over_capacity
  | Online.Streaming.Horizon_exhausted _ -> Protocol.Horizon_exhausted

(* Step [loads] from [i] on into [out]. *)
let rec feed_from t loads out i =
  if i >= Array.length loads then Ok out
  else
    match Online.Streaming.feed_result t.streaming loads.(i) with
    | Ok x ->
        out.(i) <- x;
        feed_from t loads out (i + 1)
    | Error e -> Error (feed_error_code e, Online.Streaming.feed_error_to_string e)

let feed t ~seq loads =
  let n = Array.length loads and fed = fed t in
  if seq < 0 || seq > fed then
    Error
      ( Protocol.Bad_seq,
        Printf.sprintf "seq %d leaves a gap (%d slots processed)" seq fed )
  else begin
    (* Idempotent re-delivery: slots already processed are answered from
       the stepper's power events. *)
    let out = Array.make n [||] in
    let again =
      if seq = fed then [||]
      else Online.Streaming.decisions t.streaming ~from_:seq ~until:(seq + n)
    in
    Array.blit again 0 out 0 (Array.length again);
    feed_from t loads out (Array.length again)
  end

let instance ?avail ~scenario loads =
  Option.map
    (fun mk -> Model.Instance.with_loads ?avail (mk None) loads)
    (Sim.Scenarios.by_name scenario)

let replay spec ~loads =
  Result.bind (create ~id:"replay" spec) (fun s -> feed s ~seq:0 loads)

let loads t = Online.Streaming.loads t.streaming
let loads_from t ~from_ = Online.Streaming.loads_from t.streaming ~from_

let decisions_from t ~from_ = Online.Streaming.decisions t.streaming ~from_

let save t =
  S.List
    (S.Atom "session"
    :: S.List [ S.Atom "id"; S.Atom (Protocol.quote t.id) ]
    :: S.List [ S.Atom "scenario"; S.Atom (Protocol.quote t.spec.scenario) ]
    :: ((match t.spec.max_horizon with
        | None -> []
        | Some h -> [ S.List [ S.Atom "max-horizon"; S.Atom (string_of_int h) ] ])
       @ (match t.spec.alg with
         | None -> []
         | Some a -> [ S.List [ S.Atom "alg"; S.Atom (Protocol.quote a) ] ])
       @ [ S.List [ S.Atom "state"; Online.Streaming.save t.streaming ] ]))

let ( let* ) = Result.bind

let of_sexp sexp =
  match sexp with
  | S.List (S.Atom "session" :: fields) -> (
      let str name =
        match S.assoc name fields with
        | Some [ S.Atom a ] -> Ok (Protocol.unquote a)
        | Some _ | None -> Error (Printf.sprintf "session: missing field %s" name)
      in
      let* id = str "id" in
      let* scenario = str "scenario" in
      let* max_horizon =
        match S.assoc "max-horizon" fields with
        | None -> Ok None
        | Some _ -> Result.map Option.some (Snap.int_of_field fields "max-horizon")
      in
      let* alg =
        match S.assoc "alg" fields with
        | None -> Ok None
        | Some _ -> Result.map Option.some (str "alg")
      in
      (* Payloads written while sessions kept a decision history carry
         it beside the state; it must agree with the decisions the
         restored power events give, and is then dropped. *)
      let* old_rows =
        match S.assoc "history" fields with
        | None -> Ok None
        | Some rows ->
            let rec go acc = function
              | [] -> Ok (Some (Array.of_list (List.rev acc)))
              | (S.List (S.Atom "x" :: _) as row) :: rest -> (
                  match Snap.ints_of_field [ row ] "x" with
                  | Ok r -> go (r :: acc) rest
                  | Error _ as e -> e)
              | _ -> Error "session: malformed history"
            in
            go [] rows
      in
      let* state =
        match S.assoc "state" fields with
        | Some [ state ] -> Ok state
        | Some _ | None -> Error "session: missing field state"
      in
      let* session =
        Result.map_error
          (fun (_, msg) -> "session: " ^ msg)
          (create ~id { scenario; max_horizon; alg })
      in
      let* () = Online.Streaming.restore session.streaming state in
      match old_rows with
      | Some rows when rows <> decisions_from session ~from_:0 ->
          Error "session: history disagrees with the power events"
      | Some _ | None -> Ok session)
  | S.Atom _ | S.List _ -> Error "session: unexpected payload shape"

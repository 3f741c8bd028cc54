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
  mutable history : Model.Config.t array;  (* decisions 0 .. hist_len - 1 *)
  mutable hist_len : int;
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
      Ok { id; spec; alg; streaming; history = Array.make 64 [||]; hist_len = 0 }

let id t = t.id
let spec t = t.spec
let alg t = t.alg
let num_types t = Array.length (Online.Streaming.config t.streaming)
let fed t = t.hist_len

let push_history t x =
  if t.hist_len = Array.length t.history then begin
    let bigger = Array.make (2 * Array.length t.history) [||] in
    Array.blit t.history 0 bigger 0 t.hist_len;
    t.history <- bigger
  end;
  t.history.(t.hist_len) <- x;
  t.hist_len <- t.hist_len + 1

let feed_error_code :
    Online.Streaming.feed_error -> Protocol.error_code = function
  | Online.Streaming.Bad_volume _ -> Protocol.Bad_volume
  | Online.Streaming.Over_capacity _ -> Protocol.Over_capacity
  | Online.Streaming.Horizon_exhausted _ -> Protocol.Horizon_exhausted

let feed t ~seq loads =
  let n = Array.length loads in
  if seq < 0 || seq > t.hist_len then
    Error
      ( Protocol.Bad_seq,
        Printf.sprintf "seq %d leaves a gap (%d slots processed)" seq t.hist_len )
  else begin
    let out = Array.make n [||] in
    let rec go i =
      if i >= n then Ok out
      else begin
        let slot = seq + i in
        if slot < t.hist_len then begin
          (* Idempotent re-delivery: answered from the history. *)
          out.(i) <- Array.copy t.history.(slot);
          go (i + 1)
        end
        else
          match Online.Streaming.feed_result t.streaming loads.(i) with
          | Ok x ->
              push_history t x;
              out.(i) <- Array.copy x;
              go (i + 1)
          | Error e ->
              Error (feed_error_code e, Online.Streaming.feed_error_to_string e)
      end
    in
    go 0
  end

let instance ?avail ~scenario loads =
  Option.map
    (fun mk -> Model.Instance.with_loads ?avail (mk None) loads)
    (Sim.Scenarios.by_name scenario)

let replay spec ~loads =
  Result.bind (create ~id:"replay" spec) (fun s -> feed s ~seq:0 loads)

let loads t = Online.Streaming.loads t.streaming
let loads_from t ~from_ = Online.Streaming.loads_from t.streaming ~from_

let decisions_from t ~from_ =
  let from_ = max 0 (min from_ t.hist_len) in
  Array.init (t.hist_len - from_) (fun i -> Array.copy t.history.(from_ + i))

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
       @ [ S.List
             (S.Atom "history"
             :: List.init t.hist_len (fun i -> Snap.int_array_field "x" t.history.(i)));
           S.List [ S.Atom "state"; Online.Streaming.save t.streaming ] ]))

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
      let* rows =
        match S.assoc "history" fields with
        | None -> Error "session: missing field history"
        | Some rows ->
            let rec go acc = function
              | [] -> Ok (List.rev acc)
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
      let fed_now = Online.Streaming.fed session.streaming in
      if List.length rows <> fed_now then
        Error
          (Printf.sprintf "session: history has %d rows but %d slots were fed"
             (List.length rows) fed_now)
      else begin
        List.iter (fun r -> push_history session r) rows;
        Ok session
      end)
  | S.Atom _ | S.List _ -> Error "session: unexpected payload shape"

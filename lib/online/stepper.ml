(* The accumulated-idle bookkeeping of algorithm B and det2d. *)
type budget = {
  prefix : float array array;  (* prefix.(j).(t) = sum of l_{v,j}, v < t *)
  groups : (int * int) list array;  (* per type: (power-up slot, count) *)
}

type rule =
  | A of { runtimes : int option array; w : (int, int array) Hashtbl.t }
      (* w: power-up slot -> counts per type (sparse, unbounded horizon) *)
  | B of budget
  | Det2d of budget
      (* Same accumulated-idle bookkeeping as B, but a group leaves at
         break-even (accumulated idle >= beta) instead of strictly
         beyond it; restricted to load-independent costs, where the
         earlier power-down matches algorithm A's ceil(beta/l) timer on
         time-independent instances and generalises it to time-varying
         prices. *)
  | Homog of homog_state
      (* Pooled single-type rule for coinciding server types: one
         accumulated-idle budget over the summed active count, with the
         configuration kept in canonical (fill type 0 first) form. *)

and homog_state = {
  prefix : float array;  (* pooled idle-cost prefix sums *)
  mutable groups : (int * int) list;  (* (power-up slot, count) over the pool *)
}

type t = {
  mutable inst : Model.Instance.t;  (* swapped by [rebind] on horizon growth *)
  mutable rule : rule;
  x : int array;
  mutable clock : int;
  mutable ups : (int * int * int) list;
  mutable downs : (int * int * int) list;
}

let alg_a inst =
  if not inst.Model.Instance.time_independent then
    invalid_arg "Stepper.alg_a: operating costs must be time-independent";
  let d = Model.Instance.num_types inst in
  let runtimes =
    Array.init d (fun typ ->
        let beta = inst.Model.Instance.types.(typ).Model.Server_type.switching_cost in
        let idle = Model.Instance.idle_cost inst ~time:0 ~typ in
        if idle <= 0. then None
        else Some (max 1 (int_of_float (Float.ceil (beta /. idle)))))
  in
  { inst;
    rule = A { runtimes; w = Hashtbl.create 64 };
    x = Array.make d 0;
    clock = 0;
    ups = [];
    downs = [] }

let budget_stepper ~name (rule : budget -> rule) inst =
  Array.iter
    (fun st ->
      if st.Model.Server_type.switching_cost <= 0. then
        invalid_arg ("Stepper." ^ name ^ ": every switching cost must be positive"))
    inst.Model.Instance.types;
  let d = Model.Instance.num_types inst in
  let horizon = Model.Instance.horizon inst in
  { inst;
    rule = rule { prefix = Array.make_matrix d (horizon + 1) 0.; groups = Array.make d [] };
    x = Array.make d 0;
    clock = 0;
    ups = [];
    downs = [] }

let alg_b inst = budget_stepper ~name:"alg_b" (fun b -> B b) inst
let alg_det2d inst = budget_stepper ~name:"alg_det2d" (fun b -> Det2d b) inst

let alg_homog inst =
  let d = Model.Instance.num_types inst in
  let t0 = inst.Model.Instance.types.(0) in
  if t0.Model.Server_type.switching_cost <= 0. then
    invalid_arg "Stepper.alg_homog: every switching cost must be positive";
  Array.iter
    (fun st ->
      if
        st.Model.Server_type.switching_cost <> t0.Model.Server_type.switching_cost
        || st.Model.Server_type.cap <> t0.Model.Server_type.cap
      then invalid_arg "Stepper.alg_homog: server types must coincide (beta, cap)")
    inst.Model.Instance.types;
  if inst.Model.Instance.size_varying then
    invalid_arg "Stepper.alg_homog: time-varying fleet sizes are not supported";
  let horizon = Model.Instance.horizon inst in
  { inst;
    rule = Homog { prefix = Array.make (horizon + 1) 0.; groups = [] };
    x = Array.make d 0;
    clock = 0;
    ups = [];
    downs = [] }

let c_steps = Obs.Counter.make "stepper.steps"
let c_ups = Obs.Counter.make "stepper.power_ups"
let c_downs = Obs.Counter.make "stepper.power_downs"

(* Instant events carry their slot/type/count; build the args only when
   a sink is listening. *)
let event name ~time ~typ ~count =
  if Obs.Sink.installed () then
    Obs.Span.instant name
      ~args:
        [ ("time", string_of_int time);
          ("typ", string_of_int typ);
          ("count", string_of_int count) ]

let power_down t ~time ~typ count =
  t.x.(typ) <- t.x.(typ) - count;
  Obs.Counter.add c_downs count;
  event "stepper.power_down" ~time ~typ ~count;
  t.downs <- (time, typ, count) :: t.downs

(* Whether the group powered up at slot [u] leaves at [time]: its idle
   cost accumulated since [u + 1] crosses [beta] during this slot.  B
   waits until the cost strictly exceeds beta; the break-even rules
   (det2d, homog) leave as soon as it reaches beta. *)
let crosses ~break_even prefix ~time ~beta (u, _) =
  let upto_prev = prefix.(time) -. prefix.(u + 1) in
  let upto_now = prefix.(time + 1) -. prefix.(u + 1) in
  if break_even then upto_prev < beta && beta <= upto_now
  else upto_prev <= beta && beta < upto_now

(* B's and det2d's power-down of type [typ]: add the slot's idle cost to
   the type's budget and power down every group whose budget runs out. *)
let budget_down t (b : budget) ~time ~typ ~break_even =
  let prefix = b.prefix.(typ) in
  prefix.(time + 1) <- prefix.(time) +. Model.Instance.idle_cost t.inst ~time ~typ;
  let beta = t.inst.Model.Instance.types.(typ).Model.Server_type.switching_cost in
  let leaving, staying =
    List.partition (crosses ~break_even prefix ~time ~beta) b.groups.(typ)
  in
  b.groups.(typ) <- staying;
  List.iter (fun (_, count) -> power_down t ~time ~typ count) leaving

(* Pooled step for coinciding types: one budget over the summed count,
   the per-type split kept canonical (fill type 0 first).  The canonical
   fill is monotone in the pooled total, so the down and up phases each
   touch a single-signed set of per-type deltas. *)
let step_homog t (h : homog_state) ~time ~hat =
  let d = Array.length t.x in
  let fn0 = t.inst.Model.Instance.cost ~time ~typ:0 in
  for typ = 1 to d - 1 do
    if t.inst.Model.Instance.cost ~time ~typ <> fn0 then
      invalid_arg "Stepper.step: algorithm homog needs coinciding cost functions"
  done;
  let l = Model.Instance.idle_cost t.inst ~time ~typ:0 in
  let beta = t.inst.Model.Instance.types.(0).Model.Server_type.switching_cost in
  h.prefix.(time + 1) <- h.prefix.(time) +. l;
  let leaving, staying =
    List.partition (crosses ~break_even:true h.prefix ~time ~beta) h.groups
  in
  h.groups <- staying;
  let fill n =
    (* Re-split the pooled total canonically, recording per-type events. *)
    let rest = ref n in
    for typ = 0 to d - 1 do
      let take = min (Model.Instance.max_count t.inst ~typ) !rest in
      let delta = take - t.x.(typ) in
      if delta > 0 then begin
        Obs.Counter.add c_ups delta;
        event "stepper.power_up" ~time ~typ ~count:delta;
        t.ups <- (time, typ, delta) :: t.ups
      end
      else if delta < 0 then begin
        Obs.Counter.add c_downs (-delta);
        event "stepper.power_down" ~time ~typ ~count:(-delta);
        t.downs <- (time, typ, -delta) :: t.downs
      end;
      t.x.(typ) <- take;
      rest := !rest - take
    done
  in
  let total = Array.fold_left ( + ) 0 t.x in
  let down = List.fold_left (fun acc (_, c) -> acc + c) 0 leaving in
  if down > 0 then fill (total - down);
  let target = Array.fold_left ( + ) 0 hat in
  let total = total - down in
  if total < target then begin
    h.groups <- h.groups @ [ (time, target - total) ];
    fill target
  end

let step t ~time ~hat =
  if time <> t.clock then invalid_arg "Stepper.step: slots must be fed in order";
  Obs.Counter.incr c_steps;
  t.clock <- time + 1;
  let d = Array.length t.x in
  if Array.length hat <> d then invalid_arg "Stepper.step: dimension mismatch";
  (match t.rule with
  | Homog h -> step_homog t h ~time ~hat
  | A _ | B _ | Det2d _ ->
  for typ = 0 to d - 1 do
    (* Power down. *)
    (match t.rule with
    | Homog _ -> assert false
    | A { runtimes; w } -> (
        match runtimes.(typ) with
        | Some tbar when time - tbar >= 0 -> (
            match Hashtbl.find_opt w (time - tbar) with
            | Some counts when counts.(typ) > 0 -> power_down t ~time ~typ counts.(typ)
            | Some _ | None -> ())
        | Some _ | None -> ())
    | B b -> budget_down t b ~time ~typ ~break_even:false
    | Det2d b ->
        if not (Convex.Fn.is_constant (t.inst.Model.Instance.cost ~time ~typ)) then
          invalid_arg "Stepper.step: algorithm det2d needs load-independent costs";
        budget_down t b ~time ~typ ~break_even:true);
    (* Power up to the optimal-prefix target. *)
    if t.x.(typ) < hat.(typ) then begin
      let up = hat.(typ) - t.x.(typ) in
      (match t.rule with
      | Homog _ -> assert false
      | A { w; _ } ->
          let counts =
            match Hashtbl.find_opt w time with
            | Some c -> c
            | None ->
                let c = Array.make d 0 in
                Hashtbl.add w time c;
                c
          in
          counts.(typ) <- counts.(typ) + up
      | B b | Det2d b -> b.groups.(typ) <- b.groups.(typ) @ [ (time, up) ]);
      t.x.(typ) <- hat.(typ);
      Obs.Counter.add c_ups up;
      event "stepper.power_up" ~time ~typ ~count:up;
      t.ups <- (time, typ, up) :: t.ups
    end
  done);
  Array.copy t.x

let time t = t.clock
let power_ups t = List.rev t.ups
let power_downs t = List.rev t.downs

let runtimes t =
  match t.rule with
  | A { runtimes; _ } -> Array.copy runtimes
  | B _ | Det2d _ | Homog _ ->
      invalid_arg "Stepper.runtimes: only algorithm A has fixed timers"

type batch = {
  stepper : t;
  schedule : Model.Schedule.t;
  prefix_last : Model.Config.t array;
  prefix_costs : float array;
}

let run ?grid ~span make inst =
  Obs.Span.with_ span @@ fun () ->
  let horizon = Model.Instance.horizon inst in
  let engine = Prefix_opt.create ?grid inst in
  let stepper = make inst in
  let schedule = Array.make horizon [||] in
  let prefix_last = Array.make horizon [||] in
  let prefix_costs = Array.make horizon 0. in
  for time = 0 to horizon - 1 do
    let { Prefix_opt.last = hat; prefix_cost; _ } = Prefix_opt.step engine in
    prefix_last.(time) <- hat;
    prefix_costs.(time) <- prefix_cost;
    schedule.(time) <- step stepper ~time ~hat
  done;
  { stepper; schedule; prefix_last; prefix_costs }

let rebind t inst =
  if Model.Instance.num_types inst <> Array.length t.x then
    invalid_arg "Stepper.rebind: type-count mismatch";
  if Model.Instance.horizon inst < t.clock then
    invalid_arg "Stepper.rebind: horizon shorter than slots already processed";
  (* The idle-cost prefix sums of B/det2d/homog are pre-sized to
     horizon + 1; grow them and keep the already-accumulated entries
     (indices up to [clock] are filled, the rest are written before
     being read). *)
  let grow_row len row =
    if Array.length row >= len then row
    else begin
      let row' = Array.make len 0. in
      Array.blit row 0 row' 0 (Array.length row);
      row'
    end
  in
  let len = Model.Instance.horizon inst + 1 in
  (match t.rule with
  | A _ ->
      if not inst.Model.Instance.time_independent then
        invalid_arg "Stepper.rebind: algorithm A needs time-independent costs"
  | B b -> t.rule <- B { b with prefix = Array.map (grow_row len) b.prefix }
  | Det2d b -> t.rule <- Det2d { b with prefix = Array.map (grow_row len) b.prefix }
  | Homog h -> t.rule <- Homog { h with prefix = grow_row len h.prefix });
  t.inst <- inst

(* --- snapshot codec ---

   The serialised state is exactly the mutable bookkeeping: the clock,
   the active configuration, the chronological power events, and the
   rule state (A's pending power-down table, B's idle prefix sums and
   open groups).  The instance itself is reconstructed by the caller —
   it contains closures — so [restore] targets a stepper freshly built
   over the same instance. *)

module S = Util.Sexp

let events_field name events =
  S.List
    (S.Atom name
    :: List.map
         (fun (time, typ, count) ->
           S.List
             [ S.Atom (string_of_int time);
               S.Atom (string_of_int typ);
               S.Atom (string_of_int count) ])
         events)

let events_of_field fields name =
  match S.assoc name fields with
  | None -> Error (Printf.sprintf "missing field %s" name)
  | Some args ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | S.List [ t; j; c ] :: rest -> (
            match (S.int_atom t, S.int_atom j, S.int_atom c) with
            | Some t, Some j, Some c -> go ((t, j, c) :: acc) rest
            | _ -> Error (Printf.sprintf "malformed field %s" name))
        | _ -> Error (Printf.sprintf "malformed field %s" name)
      in
      go [] args

(* B, det2d and homog all serialise idle prefix sums plus open groups;
   homog stores its single pooled row/list as a one-element array. *)
let save_budget_rule t ~tag ~common ~prefix ~groups =
  S.List
    (S.Atom "stepper"
    :: S.List [ S.Atom "rule"; S.Atom tag ]
    :: common
    @ [ S.List
          (S.Atom "prefix"
          :: Array.to_list
               (Array.map
                  (fun row ->
                    Util.Snapshot.float_array_field "row"
                      (Array.sub row 0 (t.clock + 1)))
                  prefix));
        S.List
          (S.Atom "groups"
          :: Array.to_list
               (Array.map
                  (fun g ->
                    S.List
                      (List.map
                         (fun (u, c) ->
                           S.List
                             [ S.Atom (string_of_int u); S.Atom (string_of_int c) ])
                         g))
                  groups)) ])

let save t =
  let common =
    [ S.List [ S.Atom "clock"; S.Atom (string_of_int t.clock) ];
      Util.Snapshot.int_array_field "x" t.x;
      events_field "ups" (List.rev t.ups);
      events_field "downs" (List.rev t.downs) ]
  in
  match t.rule with
  | A { w; _ } ->
      let slots =
        Hashtbl.fold (fun slot counts acc -> (slot, counts) :: acc) w []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      S.List
        (S.Atom "stepper"
        :: S.List [ S.Atom "rule"; S.Atom "a" ]
        :: common
        @ [ S.List
              (S.Atom "w"
              :: List.map
                   (fun (slot, counts) ->
                     S.List
                       (S.Atom (string_of_int slot)
                       :: Array.to_list
                            (Array.map (fun c -> S.Atom (string_of_int c)) counts)))
                   slots) ])
  | B { prefix; groups } -> save_budget_rule t ~tag:"b" ~common ~prefix ~groups
  | Det2d { prefix; groups } -> save_budget_rule t ~tag:"det2d" ~common ~prefix ~groups
  | Homog { prefix; groups } ->
      save_budget_rule t ~tag:"homog" ~common ~prefix:[| prefix |] ~groups:[| groups |]

(* Decode the prefix/groups payload shared by the budget rules and hand
   the validated arrays ([n] rows, rows truncated at the clock) to the
   rule-specific writer. *)
let restore_budget ~n ~clock ~fields ~commit =
  let rows =
    match S.assoc "prefix" fields with
    | None -> Error "stepper: missing field prefix"
    | Some rows ->
        let rec go acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | (S.List (S.Atom "row" :: _) as row) :: rest -> (
              match Util.Snapshot.floats_of_field [ row ] "row" with
              | Ok r -> go (r :: acc) rest
              | Error m -> Error m)
          | _ -> Error "stepper: malformed field prefix"
        in
        go [] rows
  in
  let groups =
    match S.assoc "groups" fields with
    | None -> Error "stepper: missing field groups"
    | Some gs ->
        let pair = function
          | S.List [ u; c ] -> (
              match (S.int_atom u, S.int_atom c) with
              | Some u, Some c -> Some (u, c)
              | _ -> None)
          | S.Atom _ | S.List _ -> None
        in
        let rec go acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | S.List pairs :: rest -> (
              let decoded = List.map pair pairs in
              if List.for_all Option.is_some decoded then
                go (List.map Option.get decoded :: acc) rest
              else Error "stepper: malformed field groups")
          | _ -> Error "stepper: malformed field groups"
        in
        go [] gs
  in
  match (rows, groups) with
  | Error m, _ | _, Error m -> Error m
  | Ok rows, Ok groups ->
      if Array.length rows <> n || Array.length groups <> n then
        Error "stepper: dimension mismatch"
      else if Array.exists (fun r -> Array.length r <> clock + 1) rows then
        Error "stepper: prefix rows do not match the clock"
      else commit rows groups

(* Events [restore] accepts: chronological, each a positive count of an
   existing type at an already-processed slot. *)
let events_in_range ~d ~clock events =
  let rec go prev = function
    | [] -> true
    | (time, typ, count) :: rest ->
        prev <= time && time < clock && 0 <= typ && typ < d && count > 0 && go time rest
  in
  go 0 events

(* The configuration the events lead to from all-off. *)
let replay ~d ups downs =
  let x = Array.make d 0 in
  List.iter (fun (_, typ, count) -> x.(typ) <- x.(typ) + count) ups;
  List.iter (fun (_, typ, count) -> x.(typ) <- x.(typ) - count) downs;
  x

let restore t sexp =
  match sexp with
  | S.List (S.Atom "stepper" :: fields) -> (
      let rule_tag =
        match S.assoc "rule" fields with
        | Some [ S.Atom tag ] -> Ok tag
        | Some _ | None -> Error "stepper: missing rule tag"
      in
      match
        ( rule_tag,
          Util.Snapshot.int_of_field fields "clock",
          Util.Snapshot.ints_of_field fields "x",
          events_of_field fields "ups",
          events_of_field fields "downs" )
      with
      | Error m, _, _, _, _
      | _, Error m, _, _, _
      | _, _, Error m, _, _
      | _, _, _, Error m, _
      | _, _, _, _, Error m -> Error m
      | Ok tag, Ok clock, Ok x, Ok ups, Ok downs -> (
          let d = Array.length t.x in
          if Array.length x <> d then Error "stepper: dimension mismatch"
          else if clock < 0 || clock > Model.Instance.horizon t.inst then
            Error "stepper: clock outside the instance horizon"
          else if not (events_in_range ~d ~clock ups && events_in_range ~d ~clock downs)
          then Error "stepper: power events out of range or out of time order"
          else if replay ~d ups downs <> x then
            Error "stepper: power events do not match x"
          else
            let commit () =
              Array.blit x 0 t.x 0 d;
              t.clock <- clock;
              t.ups <- List.rev ups;
              t.downs <- List.rev downs;
              Ok ()
            in
            match (t.rule, tag) with
            | A { w; _ }, "a" -> (
                match S.assoc "w" fields with
                | None -> Error "stepper: missing field w"
                | Some slots ->
                    let rec fill = function
                      | [] -> commit ()
                      | S.List (slot :: counts) :: rest
                        when List.length counts = d -> (
                          match
                            ( S.int_atom slot,
                              List.map S.int_atom counts |> fun l ->
                              if List.for_all Option.is_some l then
                                Some (Array.of_list (List.map Option.get l))
                              else None )
                          with
                          | Some slot, Some counts ->
                              Hashtbl.replace w slot counts;
                              fill rest
                          | _ -> Error "stepper: malformed field w")
                      | _ -> Error "stepper: malformed field w"
                    in
                    Hashtbl.reset w;
                    fill slots)
            | B b, "b" | Det2d b, "det2d" ->
                restore_budget ~n:d ~clock ~fields ~commit:(fun rows groups ->
                    Array.iteri
                      (fun typ row ->
                        Array.fill b.prefix.(typ) 0 (Array.length b.prefix.(typ)) 0.;
                        Array.blit row 0 b.prefix.(typ) 0 (Array.length row))
                      rows;
                    Array.blit groups 0 b.groups 0 d;
                    commit ())
            | Homog h, "homog" ->
                restore_budget ~n:1 ~clock ~fields ~commit:(fun rows groups ->
                    Array.fill h.prefix 0 (Array.length h.prefix) 0.;
                    Array.blit rows.(0) 0 h.prefix 0 (Array.length rows.(0));
                    h.groups <- groups.(0);
                    commit ())
            | (A _ | B _ | Det2d _ | Homog _), _ ->
                Error "stepper: rule tag does not match this stepper"))
  | S.Atom _ | S.List _ -> Error "stepper: unexpected payload shape"

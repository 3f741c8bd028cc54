(* One open group of B, det2d or homog: [count] servers powered up at
   slot [up].  [base] is the running idle sum just after slot [up], so
   the group's idle cost since its power-up is the running sum minus
   [base]. *)
type group = { up : int; count : int; base : float }

let sum_counts = List.fold_left (fun acc g -> acc + g.count) 0

(* The accumulated-idle bookkeeping of B, det2d and homog, per type
   (homog: one pooled entry): the running sum of the idle costs of the
   slots stepped so far, and the open groups, oldest first. *)
type budget = { idle : float array; groups : group list array }

type rule =
  | A of { runtimes : int option array; timers : (int * int) Queue.t array }
      (* per type with a timer: the (power-up slot, count) of each group
         still on, oldest first; a group leaves when its timer fires *)
  | B of budget
  | Det2d of budget
      (* Same accumulated-idle bookkeeping as B, but a group leaves at
         break-even (accumulated idle >= beta) instead of strictly
         beyond it; restricted to load-independent costs, where the
         earlier power-down matches algorithm A's ceil(beta/l) timer on
         time-independent instances and generalises it to time-varying
         prices. *)
  | Homog of budget
      (* Pooled single-type rule for coinciding server types: one
         accumulated-idle budget over the summed active count (a
         one-entry budget), with the configuration kept in canonical
         (fill type 0 first) form. *)

(* The power events of one server type in time order, one word each:
   the event's slot and the type's active count after it, packed as
   [slot lsl count_bits lor count].  [words] doubles as it fills; its
   first [len] words are the events. *)
type log = { mutable words : int array; mutable len : int }

let count_bits = 31
let max_count = (1 lsl count_bits) - 1
let max_slot = max_int lsr count_bits
let slot_of w = w lsr count_bits
let count_of w = w land max_count

let append log ~time count =
  if log.len = Array.length log.words then begin
    let words = Array.make (max 8 (2 * log.len)) 0 in
    Array.blit log.words 0 words 0 log.len;
    log.words <- words
  end;
  log.words.(log.len) <- (time lsl count_bits) lor count;
  log.len <- log.len + 1

let new_logs d = Array.init d (fun _ -> { words = [||]; len = 0 })

type t = {
  mutable inst : Model.Instance.t;  (* swapped by [rebind] on horizon growth *)
  rule : rule;
  x : int array;
  mutable clock : int;
  logs : log array;  (* per type *)
}

let make inst rule =
  Array.iter
    (fun st ->
      if st.Model.Server_type.count > max_count then
        invalid_arg "Stepper: a server type has more servers than the event log holds")
    inst.Model.Instance.types;
  let d = Model.Instance.num_types inst in
  { inst; rule; x = Array.make d 0; clock = 0; logs = new_logs d }

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
  make inst (A { runtimes; timers = Array.init d (fun _ -> Queue.create ()) })

let budget n = { idle = Array.make n 0.; groups = Array.make n [] }

let budget_stepper ~name (rule : budget -> rule) inst =
  Array.iter
    (fun st ->
      if st.Model.Server_type.switching_cost <= 0. then
        invalid_arg ("Stepper." ^ name ^ ": every switching cost must be positive"))
    inst.Model.Instance.types;
  make inst (rule (budget (Model.Instance.num_types inst)))

let alg_b inst = budget_stepper ~name:"alg_b" (fun b -> B b) inst
let alg_det2d inst = budget_stepper ~name:"alg_det2d" (fun b -> Det2d b) inst

let alg_homog inst =
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
  make inst (Homog (budget 1))

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
  append t.logs.(typ) ~time t.x.(typ)

(* Whether group [g] leaves during the slot that took the running idle
   sum from [before] to [after]: its idle cost since power-up crosses
   [beta] during this slot.  B waits until the cost strictly exceeds
   beta; the break-even rules (det2d, homog) leave as soon as it
   reaches beta. *)
let crosses ~break_even ~before ~after ~beta g =
  let upto_prev = before -. g.base in
  let upto_now = after -. g.base in
  if break_even then upto_prev < beta && beta <= upto_now
  else upto_prev <= beta && beta < upto_now

(* Add the slot's idle cost [l] to entry [i] of [b] and take out the
   groups whose budget runs out, returning them oldest first. *)
let budget_leaving (b : budget) i ~l ~beta ~break_even =
  let before = b.idle.(i) in
  let after = before +. l in
  b.idle.(i) <- after;
  let leaving, staying =
    List.partition (crosses ~break_even ~before ~after ~beta) b.groups.(i)
  in
  b.groups.(i) <- staying;
  leaving

(* Open a group of [count] at slot [time] in entry [i] of [b], after the
   slot's idle cost was added. *)
let budget_open (b : budget) i ~time count =
  b.groups.(i) <- b.groups.(i) @ [ { up = time; count; base = b.idle.(i) } ]

let beta t typ = t.inst.Model.Instance.types.(typ).Model.Server_type.switching_cost

(* B's and det2d's power-down of type [typ]: power down every group
   whose budget runs out. *)
let budget_down t (b : budget) ~time ~typ ~break_even =
  let l = Model.Instance.idle_cost t.inst ~time ~typ in
  List.iter
    (fun g -> power_down t ~time ~typ g.count)
    (budget_leaving b typ ~l ~beta:(beta t typ) ~break_even)

(* Pooled step for coinciding types: one budget over the summed count,
   the per-type split kept canonical (fill type 0 first).  The canonical
   fill is monotone in the pooled total, so the down and up phases each
   touch a single-signed set of per-type deltas. *)
let step_homog t (h : budget) ~time ~hat =
  let d = Array.length t.x in
  let fn0 = t.inst.Model.Instance.cost ~time ~typ:0 in
  for typ = 1 to d - 1 do
    if t.inst.Model.Instance.cost ~time ~typ <> fn0 then
      invalid_arg "Stepper.step: algorithm homog needs coinciding cost functions"
  done;
  let leaving =
    budget_leaving h 0
      ~l:(Model.Instance.idle_cost t.inst ~time ~typ:0)
      ~beta:(beta t 0) ~break_even:true
  in
  let fill n =
    (* Re-split the pooled total canonically, recording per-type events. *)
    let rest = ref n in
    for typ = 0 to d - 1 do
      let take = min (Model.Instance.max_count t.inst ~typ) !rest in
      let delta = take - t.x.(typ) in
      if delta > 0 then begin
        Obs.Counter.add c_ups delta;
        event "stepper.power_up" ~time ~typ ~count:delta
      end
      else if delta < 0 then begin
        Obs.Counter.add c_downs (-delta);
        event "stepper.power_down" ~time ~typ ~count:(-delta)
      end;
      if delta <> 0 then append t.logs.(typ) ~time take;
      t.x.(typ) <- take;
      rest := !rest - take
    done
  in
  let total = Array.fold_left ( + ) 0 t.x in
  let down = sum_counts leaving in
  if down > 0 then fill (total - down);
  let target = Array.fold_left ( + ) 0 hat in
  let total = total - down in
  if total < target then begin
    budget_open h 0 ~time (target - total);
    fill target
  end

let step t ~time ~hat =
  if time <> t.clock then invalid_arg "Stepper.step: slots must be fed in order";
  if time > max_slot then invalid_arg "Stepper.step: slot past the event log's limit";
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
    | A { runtimes; timers } -> (
        match runtimes.(typ) with
        | Some tbar ->
            let q = timers.(typ) in
            while (not (Queue.is_empty q)) && fst (Queue.peek q) + tbar = time do
              power_down t ~time ~typ (snd (Queue.pop q))
            done
        | None -> ())
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
      | A { runtimes; timers } ->
          if runtimes.(typ) <> None then Queue.push (time, up) timers.(typ)
      | B b | Det2d b -> budget_open b typ ~time up);
      t.x.(typ) <- hat.(typ);
      Obs.Counter.add c_ups up;
      event "stepper.power_up" ~time ~typ ~count:up;
      append t.logs.(typ) ~time hat.(typ)
    end
  done);
  Array.copy t.x

let time t = t.clock

let by_slot (t, _, _) (t', _, _) = Int.compare t t'

(* The chronological [(time, typ, count)] power-ups and power-downs of
   [logs].  The logs are listed in type order and the sort is stable, so
   the events of a slot come by type and then in log order: a type's
   power-downs (oldest group first) before its power-up. *)
let events logs =
  let all =
    List.concat
      (List.init (Array.length logs) (fun typ ->
           let log = logs.(typ) in
           List.init log.len (fun i ->
               let before = if i = 0 then 0 else count_of log.words.(i - 1) in
               (slot_of log.words.(i), typ, count_of log.words.(i) - before))))
    |> List.stable_sort by_slot
  in
  ( List.filter_map (fun (t, j, c) -> if c > 0 then Some (t, j, c) else None) all,
    List.filter_map (fun (t, j, c) -> if c < 0 then Some (t, j, -c) else None) all )

let power_ups t = fst (events t.logs)
let power_downs t = snd (events t.logs)

(* The number of [log]'s events at slots up to [time]: a binary search. *)
let events_upto log time =
  let lo = ref 0 and hi = ref log.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if slot_of log.words.(mid) <= time then lo := mid + 1 else hi := mid
  done;
  !lo

(* Each type's count at slot [from_] is that after its last event up to
   [from_]; later slots read their own events forward. *)
let decisions ?until t ~from_ =
  let until = match until with Some u -> max 0 (min u t.clock) | None -> t.clock in
  let from_ = max 0 (min from_ until) in
  let pos = Array.map (fun log -> events_upto log from_) t.logs in
  let x =
    Array.mapi (fun j i -> if i = 0 then 0 else count_of t.logs.(j).words.(i - 1)) pos
  in
  Array.init (until - from_) (fun k ->
      Array.iteri
        (fun j log ->
          while pos.(j) < log.len && slot_of log.words.(pos.(j)) = from_ + k do
            x.(j) <- count_of log.words.(pos.(j));
            pos.(j) <- pos.(j) + 1
          done)
        t.logs;
      Array.copy x)

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
  t.inst <- inst

(* --- snapshot codec ---

   The serialised state is the clock, the active configuration, the
   chronological power events and, for B, det2d and homog, the budget:
   the running idle sums (bit-exact floats) and the open groups.  A's
   open timers are the power-ups that have not fired yet, so [restore]
   rebuilds them from the events.  The instance itself is reconstructed
   by the caller — it contains closures — so [restore] targets a stepper
   freshly built over the same instance. *)

module S = Util.Sexp

let int_atom i = S.Atom (string_of_int i)

let events_field name events =
  S.List
    (S.Atom name
    :: List.map
         (fun (time, typ, count) -> S.List [ int_atom time; int_atom typ; int_atom count ])
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

let save t =
  let ups, downs = events t.logs in
  let tag, rule_fields =
    match t.rule with
    | A _ -> ("a", [])
    | B b -> ("b", [ b ])
    | Det2d b -> ("det2d", [ b ])
    | Homog b -> ("homog", [ b ])
  in
  S.List
    (S.Atom "stepper"
    :: S.List [ S.Atom "rule"; S.Atom tag ]
    :: S.List [ S.Atom "clock"; int_atom t.clock ]
    :: Util.Snapshot.int_array_field "x" t.x
    :: events_field "ups" ups
    :: events_field "downs" downs
    :: List.concat_map
         (fun b ->
           [ Util.Snapshot.float_array_field "idle" b.idle;
             S.List
               (S.Atom "open-groups"
               :: Array.to_list
                    (Array.map
                       (fun gs ->
                         S.List
                           (List.map
                              (fun g ->
                                S.List
                                  [ int_atom g.up;
                                    int_atom g.count;
                                    Util.Snapshot.float_atom g.base ])
                              gs))
                       b.groups)) ])
         rule_fields)

(* Field [name] as one list of items per budget entry, each item decoded
   by [item]. *)
let entries_of_field fields name ~item =
  let malformed = Error ("stepper: malformed field " ^ name) in
  let rec items acc = function
    | [] -> Some (List.rev acc)
    | S.List parts :: rest -> Option.bind (item parts) (fun g -> items (g :: acc) rest)
    | S.Atom _ :: _ -> None
  in
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | S.List l :: rest -> (
        match items [] l with Some gs -> go (gs :: acc) rest | None -> malformed)
    | S.Atom _ :: _ -> malformed
  in
  match S.assoc name fields with
  | None -> Error ("stepper: missing field " ^ name)
  | Some lists -> go [] lists

(* The running idle sums and open groups of a budget payload.  A payload
   written before the budget kept running sums carries [prefix] rows of
   [clock + 1] prefix sums and [groups] of (slot, count) pairs instead:
   its running sum is [row.(clock)] and a group powered up at [u] gets
   [row.(u + 1)] as its base. *)
let budget_of_fields ~n ~clock fields =
  let ( let* ) = Result.bind in
  let dims a = if Array.length a = n then Ok a else Error "stepper: dimension mismatch" in
  let slot_ok (u, c) = 0 <= u && u < clock && c > 0 in
  let check_slots pairs =
    if Array.for_all (List.for_all slot_ok) pairs then Ok ()
    else Error "stepper: open groups out of range"
  in
  match S.assoc "prefix" fields with
  | None ->
      let* idle = Result.bind (Util.Snapshot.floats_of_field fields "idle") dims in
      let* groups =
        Result.bind
          (entries_of_field fields "open-groups" ~item:(function
            | [ u; c; base ] -> (
                match (S.int_atom u, S.int_atom c, Util.Snapshot.float_of_atom base) with
                | Some up, Some count, Some base -> Some { up; count; base }
                | _ -> None)
            | _ -> None))
          dims
      in
      let* () = check_slots (Array.map (List.map (fun g -> (g.up, g.count))) groups) in
      Ok (idle, groups)
  | Some rows ->
      let* rows =
        List.fold_left
          (fun acc row ->
            let* acc = acc in
            match row with
            | S.List (S.Atom "row" :: _) ->
                let* r = Util.Snapshot.floats_of_field [ row ] "row" in
                if Array.length r = clock + 1 then Ok (r :: acc)
                else Error "stepper: prefix rows do not match the clock"
            | _ -> Error "stepper: malformed field prefix")
          (Ok []) rows
      in
      let* rows = dims (Array.of_list (List.rev rows)) in
      let* pairs =
        Result.bind
          (entries_of_field fields "groups" ~item:(function
            | [ u; c ] -> (
                match (S.int_atom u, S.int_atom c) with
                | Some u, Some c -> Some (u, c)
                | _ -> None)
            | _ -> None))
          dims
      in
      let* () = check_slots pairs in
      Ok
        ( Array.map (fun row -> row.(clock)) rows,
          Array.mapi
            (fun i -> List.map (fun (up, count) -> { up; count; base = rows.(i).(up + 1) }))
            pairs )

(* Events [restore] accepts: in slot and then type order, each a
   positive count of an existing type at an already-processed slot. *)
let events_in_range ~d ~clock events =
  let rec go prev_time prev_typ = function
    | [] -> true
    | (time, typ, count) :: rest ->
        (prev_time < time || (prev_time = time && prev_typ <= typ))
        && time < clock && 0 <= typ && typ < d && count > 0 && go time typ rest
  in
  go 0 0 events

(* The logs of [ups] and [downs] from all-off; [Error] once a type's
   count leaves [0, count_j], or unless they end in [x].  The sort is
   stable and the power-downs come first, so a type's power-downs in a
   slot apply before its power-ups, as [step] makes them. *)
let logs_of_events inst ~x ups downs =
  let d = Array.length x in
  let logs = new_logs d and counts = Array.make d 0 in
  let signed sign = List.map (fun (time, typ, count) -> (time, typ, sign * count)) in
  let rec go = function
    | [] -> if counts = x then Ok logs else Error "stepper: power events do not match x"
    | (time, typ, delta) :: rest ->
        let after = counts.(typ) + delta in
        if after < 0 || after > Model.Instance.max_count inst ~typ then
          Error "stepper: power events take a count outside 0 .. count_j"
        else begin
          counts.(typ) <- after;
          append logs.(typ) ~time after;
          go rest
        end
  in
  go (List.stable_sort by_slot (signed (-1) downs @ signed 1 ups))

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
          else if clock > max_slot + 1 then
            Error "stepper: clock past the event log's slot limit"
          else if clock < 0 || clock > Model.Instance.horizon t.inst then
            Error "stepper: clock outside the instance horizon"
          else if not (events_in_range ~d ~clock ups && events_in_range ~d ~clock downs)
          then Error "stepper: power events out of range or out of time order"
          else
            Result.bind (logs_of_events t.inst ~x ups downs) @@ fun logs ->
            let commit () =
              Array.blit x 0 t.x 0 d;
              t.clock <- clock;
              Array.blit logs 0 t.logs 0 d;
              Ok ()
            in
            let budget (b : budget) ~n ~sums =
              match budget_of_fields ~n ~clock fields with
              | Error _ as e -> e
              | Ok (_, groups) when Array.map sum_counts groups <> sums ->
                  Error "stepper: open groups do not sum to x"
              | Ok (idle, groups) ->
                  Array.blit idle 0 b.idle 0 n;
                  Array.blit groups 0 b.groups 0 n;
                  commit ()
            in
            match (t.rule, tag) with
            | A { runtimes; timers }, "a" ->
                (* A timer fires [tbar] slots after its power-up; the
                   groups still on sum to the active count.  A [w]
                   table, written before the timers were rebuilt from
                   the events, is ignored. *)
                let sums = Array.make d 0 in
                Array.iter Queue.clear timers;
                List.iter
                  (fun (u, typ, c) ->
                    match runtimes.(typ) with
                    | Some tbar when u + tbar < clock -> ()
                    | Some _ ->
                        sums.(typ) <- sums.(typ) + c;
                        Queue.push (u, c) timers.(typ)
                    | None -> sums.(typ) <- sums.(typ) + c)
                  ups;
                if sums <> x then Error "stepper: open timers do not sum to x" else commit ()
            | B b, "b" | Det2d b, "det2d" -> budget b ~n:d ~sums:x
            | Homog b, "homog" -> budget b ~n:1 ~sums:[| Array.fold_left ( + ) 0 x |]
            | (A _ | B _ | Det2d _ | Homog _), _ ->
                Error "stepper: rule tag does not match this stepper"))
  | S.Atom _ | S.List _ -> Error "stepper: unexpected payload shape"

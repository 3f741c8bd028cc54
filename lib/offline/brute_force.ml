exception Too_large of int

let solve ?(limit = 2_000_000) inst =
  let horizon = Model.Instance.horizon inst in
  if horizon = 0 then invalid_arg "Brute_force.solve: empty instance";
  let d = Model.Instance.num_types inst in
  let layer_states =
    Array.init horizon (fun time ->
        let grid =
          Grid.dense (Array.init d (fun typ -> inst.Model.Instance.avail ~time ~typ))
        in
        let states = ref [] in
        Grid.iter grid (fun _ x -> states := Model.Config.copy x :: !states);
        Array.of_list (List.rev !states))
  in
  let work =
    Array.fold_left
      (fun acc states ->
        let next = acc * Array.length states in
        if next > limit || next < 0 then raise (Too_large next) else next)
      1 layer_states
  in
  ignore work;
  let cache = Model.Cost.make_cache inst in
  (* [layer_states] was built in [Grid.iter] order, so a state's array
     index is its grid rank — the key into the slot's flat memo table,
     sized here for the search below. *)
  Array.iteri
    (fun time states ->
      ignore (Model.Cost.layer_table cache ~time (Array.length states) : float array))
    layer_states;
  let best_cost = ref infinity in
  let best = ref None in
  let current = Array.make horizon [||] in
  let rec go time prev cost_so_far =
    (* Strict pruning only, so equal-cost schedules still compete on the
       lexicographic tie-break. *)
    if cost_so_far > !best_cost then ()
    else if time = horizon then begin
      let candidate = Array.map Array.copy current in
      if
        cost_so_far < !best_cost
        || (cost_so_far = !best_cost
           && match !best with Some b -> compare candidate b < 0 | None -> true)
      then begin
        best_cost := cost_so_far;
        best := Some candidate
      end
    end
    else
      Array.iteri
        (fun rank x ->
          let g = Model.Cost.operating_rank cache ~time ~rank x in
          if Float.is_finite g then begin
            let sw = Model.Config.switching_cost inst.Model.Instance.types ~from_:prev ~to_:x in
            current.(time) <- x;
            go (time + 1) x (cost_so_far +. g +. sw)
          end)
        layer_states.(time)
  in
  go 0 (Model.Config.zero d) 0.;
  match !best with
  | None -> invalid_arg "Brute_force.solve: no feasible schedule"
  | Some schedule -> { Dp.schedule; cost = !best_cost }

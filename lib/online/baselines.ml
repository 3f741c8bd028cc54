let always_on inst =
  let horizon = Model.Instance.horizon inst in
  let grid = Offline.Grid.dense (Model.Instance.counts inst) in
  let cache = Model.Cost.make_cache inst in
  let d = Model.Instance.num_types inst in
  let n = Offline.Grid.size grid in
  (* Every slot sees the full dense grid, so a state's flat index is its
     rank in each slot's memo table. *)
  for time = 0 to horizon - 1 do
    ignore (Model.Cost.layer_table cache ~time n : float array)
  done;
  let best = ref infinity and best_x = ref None in
  Offline.Grid.iter grid (fun idx x ->
      let sw = Model.Config.switching_cost inst.Model.Instance.types
                 ~from_:(Model.Config.zero d) ~to_:x
      in
      let total = ref sw in
      (try
         for time = 0 to horizon - 1 do
           let g = Model.Cost.operating_rank cache ~time ~rank:idx x in
           if not (Float.is_finite g) then raise Exit;
           total := !total +. g
         done;
         if !total < !best then begin
           best := !total;
           best_x := Some (Model.Config.copy x)
         end
       with Exit -> ()));
  match !best_x with
  | None -> invalid_arg "Baselines.always_on: no single feasible configuration"
  | Some x -> Array.init horizon (fun _ -> Array.copy x)

let follow_demand inst =
  let horizon = Model.Instance.horizon inst in
  let grid = Offline.Grid.dense (Model.Instance.counts inst) in
  let cache = Model.Cost.make_cache inst in
  let n = Offline.Grid.size grid in
  Array.init horizon (fun time ->
      ignore (Model.Cost.layer_table cache ~time n : float array);
      let best = ref infinity and best_x = ref None in
      Offline.Grid.iter grid (fun idx x ->
          let g = Model.Cost.operating_rank cache ~time ~rank:idx x in
          if g < !best then begin
            best := g;
            best_x := Some (Model.Config.copy x)
          end);
      match !best_x with
      | None -> invalid_arg "Baselines.follow_demand: infeasible slot"
      | Some x -> x)

let receding_horizon ~window inst =
  if window < 1 then invalid_arg "Baselines.receding_horizon: window must be >= 1";
  let horizon = Model.Instance.horizon inst in
  let d = Model.Instance.num_types inst in
  let current = ref (Model.Config.zero d) in
  Array.init horizon (fun time ->
      let len = min window (horizon - time) in
      let sub = Model.Instance.window inst ~start:time ~len in
      let { Offline.Dp.schedule; _ } = Offline.Dp.solve ~initial:!current sub in
      current := schedule.(0);
      Array.copy schedule.(0))

let lcp_1d inst =
  if Model.Instance.num_types inst <> 1 then
    invalid_arg "Baselines.lcp_1d: homogeneous instances only (d = 1)";
  let horizon = Model.Instance.horizon inst in
  let engine = Prefix_opt.create inst in
  let x = ref 0 in
  Array.init horizon (fun _ ->
      let { Prefix_opt.last; last_hi; _ } = Prefix_opt.step engine in
      let lo = last.(0) and hi = last_hi.(0) in
      (* Lazy: project the previous count onto [lo, hi]. *)
      if !x < lo then x := lo else if !x > hi then x := hi;
      [| !x |])

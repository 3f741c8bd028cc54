let log_src = Logs.Src.create "rightsizing.dp" ~doc:"Offline dynamic programs"

module Log = (val Logs.src_log log_src : Logs.LOG)

type result = { schedule : Model.Schedule.t; cost : float }

type frontier = { next_time : int; layers : float array array }

let c_solves = Obs.Counter.make "dp.solves"
let c_cells = Obs.Counter.make "dp.cells"
let c_layer_retries = Obs.Counter.make "dp.layer_retries"
let c_stored = Obs.Counter.make "dp.stored_cells"

module S = Util.Sexp

let frontier_to_sexp f =
  S.List
    (S.Atom "dp-frontier"
    :: S.List [ S.Atom "next-time"; S.Atom (string_of_int f.next_time) ]
    :: Array.to_list (Array.map (Util.Snapshot.float_array_field "layer") f.layers))

let frontier_of_sexp sexp =
  match sexp with
  | S.List (S.Atom "dp-frontier" :: fields) -> (
      match Util.Snapshot.int_of_field fields "next-time" with
      | Error m -> Error m
      | Ok next_time ->
          let rec layers acc = function
            | [] -> Ok (Array.of_list (List.rev acc))
            | (S.List (S.Atom "layer" :: _) as l) :: rest -> (
                match Util.Snapshot.floats_of_field [ l ] "layer" with
                | Ok a -> layers (a :: acc) rest
                | Error m -> Error m)
            | S.List (S.Atom "next-time" :: _) :: rest -> layers acc rest
            | _ -> Error "dp-frontier: malformed layer"
          in
          Result.bind (layers [] fields) (fun layers ->
              if Array.length layers <> next_time then
                Error "dp-frontier: layer count does not match next-time"
              else Ok { next_time; layers }))
  | S.Atom _ | S.List _ -> Error "dp-frontier: unexpected payload shape"

let betas inst =
  Array.map (fun st -> st.Model.Server_type.switching_cost) inst.Model.Instance.types

(* One grid per distinct availability vector: a static instance builds
   one grid for all its slots. *)
let grids_by_avail build inst =
  let d = Model.Instance.num_types inst in
  let built = Hashtbl.create 4 in
  fun time ->
    let avail = Array.init d (fun typ -> inst.Model.Instance.avail ~time ~typ) in
    match Hashtbl.find_opt built avail with
    | Some g -> g
    | None ->
        let g = build avail in
        Hashtbl.add built avail g;
        g

let dense_grids inst = grids_by_avail Grid.dense inst
let approx_grids ~gamma inst = grids_by_avail (Grid.power ~gamma) inst

let state_count inst ~grids =
  let acc = ref 0 in
  for time = 0 to Model.Instance.horizon inst - 1 do
    acc := !acc + Grid.size (grids time)
  done;
  !acc

(* Operating costs of every state of a layer's grid into [table], by
   rank.  The fill walks the grid line by line along the last axis
   (stride 1, so each line is a contiguous rank range): within a line
   the configurations differ only in the swept coordinate, so
   Model.Cost.fill_line seeds the dispatch pieces from the context's
   tables and warm-starts each cell's multiplier search from the
   previous cell's bracket.  Only [nan] entries are computed.  The
   context, and the cursor it owns, are this call's. *)
let fill_lines inst grid ~time table =
  let d = Grid.dim grid in
  let len = Grid.axis_length grid (d - 1) in
  let ctx = Model.Cost.line_ctx ~axes:(Array.init d (Grid.axis_values grid)) in
  let pos = Array.make (d - 1) 0 in
  Model.Cost.line_layer ctx inst ~time;
  Fun.protect ~finally:(fun () -> Model.Cost.line_flush ctx) (fun () ->
      for k = 0 to (Grid.size grid / len) - 1 do
        Model.Cost.fill_line ~ctx ~table ~rank0:(k * len) ~pos;
        Grid.next_line grid pos
      done)

let fill_row inst grid ~time row =
  if Array.length row <> Grid.size grid then invalid_arg "Dp.fill_row: row size mismatch";
  Array.fill row 0 (Array.length row) nan;
  fill_lines inst grid ~time row

let fill_layer cache grid ~time =
  let table = Model.Cost.layer_table cache ~time (Grid.size grid) in
  fill_lines (Model.Cost.cache_instance cache) grid ~time table;
  table

let solve ?grids ?initial ?resume ?on_layer inst =
  Obs.Span.with_ "dp.solve" @@ fun () ->
  Obs.Counter.incr c_solves;
  (* Two-sided switching costs fold into the power-up side without
     changing any schedule's cost (paper, Section 1). *)
  let inst = Model.Instance.fold_switching inst in
  let horizon = Model.Instance.horizon inst in
  if horizon = 0 then invalid_arg "Dp.solve: empty instance";
  let grids = match grids with Some g -> g | None -> dense_grids inst in
  let betas = betas inst in
  let d = Model.Instance.num_types inst in
  (* Reuse the previous slot's grid object when the axes coincide, so the
     cheap in-place transform applies on the common static-size path. *)
  let grid_at = Array.make horizon (grids 0) in
  for time = 1 to horizon - 1 do
    let g = grids time in
    grid_at.(time) <- (if Grid.equal g grid_at.(time - 1) then grid_at.(time - 1) else g)
  done;
  (* Layers are built in two dense planes sized for the largest grid:
     [prev] holds layer t-1 and [cur] receives layer t.  A finished
     layer — cell i the cheapest cost of a schedule prefix ending in
     state i of grid t, including slot t's operating cost, or +infinity
     where the state is dominated (Forward's canonical layer) — goes
     into a run-length store that keeps only each line's finite run. *)
  let plane_size = Array.fold_left (fun m g -> max m (Grid.size g)) 0 grid_at in
  let prev = ref (Plane.create plane_size) and cur = ref (Plane.create plane_size) in
  let store = Layer_store.create () in
  let keep time p =
    let g = grid_at.(time) in
    Layer_store.append store p ~size:(Grid.size g) ~line:(Grid.axis_length g (d - 1))
  in
  (* Cross-grid transforms ping-pong through two scratch planes sized
     for the largest intermediate mixed shape; lazy, so the common
     static-grid path allocates none. *)
  let work_size = ref 0 in
  for time = 1 to horizon - 1 do
    if grid_at.(time) != grid_at.(time - 1) then begin
      let sg = grid_at.(time - 1) and dg = grid_at.(time) in
      let sz = ref (Grid.size sg) in
      for j = 0 to d - 2 do
        sz := !sz / Grid.axis_length sg j * Grid.axis_length dg j;
        if !sz > !work_size then work_size := !sz
      done
    end
  done;
  let work = lazy (Plane.create !work_size, Plane.create !work_size) in
  (* The solve's buffer for decoding a state's configuration. *)
  let x = Model.Config.zero d in
  (* Resume a checkpointed forward pass: the saved layers replace the
     recomputation up to [next_time], and the last of them is left in
     [prev].  The caller must supply the same instance and grids the
     frontier was captured under; sizes are validated here, semantic
     agreement is the caller's contract. *)
  let start_time =
    match resume with
    | None -> 0
    | Some f ->
        if f.next_time < 1 || f.next_time > horizon then
          invalid_arg "Dp.solve: resume frontier outside the horizon";
        if Array.length f.layers <> f.next_time then
          invalid_arg "Dp.solve: resume frontier layer count mismatch";
        for time = 0 to f.next_time - 1 do
          if Array.length f.layers.(time) <> Grid.size grid_at.(time) then
            invalid_arg "Dp.solve: resume frontier does not match the grids";
          Plane.of_array f.layers.(time) !prev ~off:0;
          ignore (keep time !prev : int)
        done;
        f.next_time
  in
  (* One sweep context per run of equal grids; its scratch row holds the
     sweep's g_t. *)
  let fwd = ref (Forward.create grid_at.(0) ~betas) in
  (Obs.Span.with_ "dp.forward" @@ fun () ->
  for time = start_time to horizon - 1 do
    let grid = grid_at.(time) in
    let n = Grid.size grid in
    Obs.Counter.add c_cells n;
    (* Each layer is R, the ramped previous layer, made canonical by
       the sweep.  The fill only reads [prev], which it leaves
       untouched, so an injected fault can be absorbed by refilling. *)
    let fill () =
      let p = !cur in
      if Forward.grid !fwd != grid then fwd := Forward.create grid ~betas;
      if time = 0 then begin
        (* Single known source: R is the closed-form switching cost from
           it, no transform needed (and [initial] need not be on the
           grid). *)
        let init = match initial with None -> Model.Config.zero d | Some c -> c in
        for i = 0 to n - 1 do
          Grid.config_into grid i x;
          Bigarray.Array1.unsafe_set p i
            (Model.Config.switching_cost inst.Model.Instance.types ~from_:init ~to_:x)
        done
      end
      else begin
        let src_grid = grid_at.(time - 1) in
        if src_grid == grid then begin
          Plane.blit ~src:!prev ~soff:0 ~dst:p ~doff:0 ~len:n;
          Transform.ramp_grid_plane ~grid ~betas p ~off:0
        end
        else
          Transform.ramp_across_plane ~src_grid ~dst_grid:grid ~betas ~src:!prev ~soff:0
            ~tmp:(Lazy.force work) p ~doff:0
      end;
      Forward.sweep !fwd inst ~time p ~off:0
    in
    (try
       Util.Faultinj.hit "dp.layer_fill";
       fill ()
     with Util.Faultinj.Injected { site = "dp.layer_fill"; _ } ->
       Obs.Counter.incr c_layer_retries;
       Util.Faultinj.recovered "dp.layer_fill";
       Util.Faultinj.suppressed fill);
    Obs.Counter.add c_stored (keep time !cur);
    let filled = !cur in
    cur := !prev;
    prev := filled;
    match on_layer with
    | None -> ()
    | Some cb ->
        cb ~time (fun () ->
            { next_time = time + 1; layers = Array.init (time + 1) (Layer_store.to_array store) })
  done);
  (* The reconstruction reads each stored layer through its finite
     cells, in rank order: a +infinity arrival (a state below the load
     or dominated) can never be a best predecessor, so it is never
     decoded. *)
  let cells = Array.make plane_size 0 and arrivals = Array.create_float plane_size in
  (* Terminal: powering everything down is free, so the first cheapest
     state of the last layer (filled or resumed) ends the schedule. *)
  let last_grid = grid_at.(horizon - 1) in
  let best = ref infinity and best_idx = ref (-1) in
  for k = 0 to Layer_store.finite store (horizon - 1) cells arrivals - 1 do
    if arrivals.(k) < !best then begin
      best := arrivals.(k);
      best_idx := cells.(k)
    end
  done;
  if not (Float.is_finite !best) then
    invalid_arg "Dp.solve: no feasible schedule (load exceeds capacity)";
  (* Reconstruct backwards: pick, per slot, the lexicographically smallest
     predecessor achieving the arrival cost. *)
  let schedule = Array.make horizon [||] in
  schedule.(horizon - 1) <- Grid.config_at last_grid !best_idx;
  (Obs.Span.with_ "dp.reconstruct" @@ fun () ->
  for time = horizon - 1 downto 1 do
    let target = schedule.(time) in
    let grid = grid_at.(time - 1) in
    let m = Layer_store.finite store (time - 1) cells arrivals in
    let best = ref infinity and best_x = ref None in
    (* Ordered scan with a cheap lower-bound prune: the candidate total
       is at least the arrival cost (switching costs are non-negative),
       so states whose arrival already exceeds the incumbent by more
       than the tie fuzz can skip both the config decode and the
       switching-cost evaluation.  Accepted candidates follow the exact
       legacy comparison, so the chosen predecessor is unchanged. *)
    for k = 0 to m - 1 do
      let arrival = arrivals.(k) in
      if arrival <= !best +. 1e-12 then begin
        Grid.config_into grid cells.(k) x;
        let total =
          arrival +. Model.Config.switching_cost inst.Model.Instance.types ~from_:x ~to_:target
        in
        if
          total < !best -. 1e-12
          || (Float.abs (total -. !best) <= 1e-12
             && match !best_x with Some b -> Model.Config.compare x b < 0 | None -> true)
        then begin
          best := total;
          best_x := Some (Model.Config.copy x)
        end
      end
    done;
    match !best_x with
    | Some y -> schedule.(time - 1) <- y
    | None -> invalid_arg "Dp.solve: reconstruction failed"
  done);
  Log.debug (fun m ->
      m "solved T=%d d=%d states/slot<=%d cost=%g" horizon d
        (Grid.size grid_at.(horizon - 1))
        !best);
  { schedule; cost = !best }

let solve_optimal inst = solve inst

let solve_approx ~eps inst =
  if eps <= 0. then invalid_arg "Dp.solve_approx: eps must be positive";
  let gamma = 1. +. (eps /. 2.) in
  solve ~grids:(approx_grids ~gamma inst) inst

type step = {
  last : Model.Config.t;
  last_hi : Model.Config.t;
  prefix_cost : float;
}

type t = {
  mutable inst : Model.Instance.t;  (* swapped by [rebind] on horizon growth *)
  grid : Offline.Grid.t;
  betas : float array;
  forward : Offline.Forward.t;
  arrival : Offline.Plane.t;  (* canonical; meaningful only when [clock > 0] *)
  mutable clock : int;
}

let create ?grid inst =
  let inst = Model.Instance.fold_switching inst in
  let grid =
    match grid with
    | Some g ->
        if Offline.Grid.dim g <> Model.Instance.num_types inst then
          invalid_arg "Prefix_opt.create: grid dimension mismatch";
        g
    | None -> Offline.Grid.dense (Model.Instance.counts inst)
  in
  let betas =
    Array.map (fun st -> st.Model.Server_type.switching_cost) inst.Model.Instance.types
  in
  { inst;
    grid;
    betas;
    forward = Offline.Forward.create grid ~betas;
    arrival = Offline.Plane.create (Offline.Grid.size grid);
    clock = 0 }

let time e = e.clock

let rebind e inst =
  let inst = Model.Instance.fold_switching inst in
  if Model.Instance.num_types inst <> Offline.Grid.dim e.grid then
    invalid_arg "Prefix_opt.rebind: type-count mismatch";
  if Model.Instance.counts inst <> Model.Instance.counts e.inst then
    invalid_arg "Prefix_opt.rebind: fleet sizes changed";
  if Model.Instance.horizon inst < e.clock then
    invalid_arg "Prefix_opt.rebind: horizon shorter than slots already processed";
  (* Nothing derived from the old instance outlives a step: the
     operating-cost row is refilled from [e.inst] every slot. *)
  e.inst <- inst

let save e =
  (* The codec predates the plane engine: the arrival layer still
     travels as a plain float-array field (empty before the first
     step), so snapshots stay readable across versions. *)
  let arrival =
    if e.clock = 0 then [||]
    else Offline.Plane.to_array e.arrival ~off:0 ~len:(Offline.Plane.length e.arrival)
  in
  Util.Sexp.List
    [ Util.Sexp.Atom "prefix-opt";
      Util.Sexp.List [ Util.Sexp.Atom "clock"; Util.Sexp.Atom (string_of_int e.clock) ];
      Util.Snapshot.float_array_field "arrival" arrival ]

let restore e sexp =
  match sexp with
  | Util.Sexp.List (Util.Sexp.Atom "prefix-opt" :: fields) -> (
      match
        ( Util.Snapshot.int_of_field fields "clock",
          Util.Snapshot.floats_of_field fields "arrival" )
      with
      | Error m, _ | _, Error m -> Error m
      | Ok clock, Ok arrival ->
          if clock < 0 || clock > Model.Instance.horizon e.inst then
            Error "prefix-opt: clock outside the instance horizon"
          else if clock > 0 && Array.length arrival <> Offline.Grid.size e.grid then
            Error "prefix-opt: arrival layer does not match the state grid"
          else begin
            e.clock <- clock;
            if clock > 0 then Offline.Plane.of_array arrival e.arrival ~off:0;
            Ok ()
          end)
  | Util.Sexp.Atom _ | Util.Sexp.List _ -> Error "prefix-opt: unexpected payload shape"

let step e =
  if e.clock >= Model.Instance.horizon e.inst then
    invalid_arg "Prefix_opt.step: past the horizon";
  let time = e.clock in
  let d = Model.Instance.num_types e.inst in
  let n = Offline.Grid.size e.grid in
  if time = 0 then begin
    Offline.Plane.fill_range e.arrival ~off:0 ~len:n infinity;
    match Offline.Grid.index_of e.grid (Model.Config.zero d) with
    | Some idx -> Bigarray.Array1.unsafe_set e.arrival idx 0.
    | None -> assert false
  end;
  (* The ramp updates the arrival plane in place to R; the sweep then
     adds g_t and prunes. *)
  Offline.Transform.ramp_grid_plane ~grid:e.grid ~betas:e.betas e.arrival ~off:0;
  Offline.Forward.sweep e.forward e.inst ~time e.arrival ~off:0;
  e.clock <- time + 1;
  (* The sweep kept the first and last ranks of the smallest cost; rank
     order is lexicographic. *)
  let best = Offline.Forward.min_cost e.forward in
  if not (Float.is_finite best) then
    invalid_arg "Prefix_opt.step: no feasible schedule for this prefix";
  { last = Offline.Grid.config_at e.grid (Offline.Forward.argmin e.forward);
    last_hi = Offline.Grid.config_at e.grid (Offline.Forward.argmin_last e.forward);
    prefix_cost = best }

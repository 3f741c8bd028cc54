type t = {
  types : Server_type.t array;
  load : float array;
  cost : time:int -> typ:int -> Convex.Fn.t;
  avail : time:int -> typ:int -> int;
  time_independent : bool;
  size_varying : bool;
}

let validate ~types ~load =
  if Array.length types = 0 then invalid_arg "Instance.make: no server types";
  Array.iter
    (fun l ->
      if l < 0. || Float.is_nan l then invalid_arg "Instance.make: negative load")
    load

let default_avail types ~time:_ ~typ = types.(typ).Server_type.count

let check_avail types avail ~horizon =
  let d = Array.length types in
  let varying = ref false in
  for time = 0 to horizon - 1 do
    for typ = 0 to d - 1 do
      let a = avail ~time ~typ in
      if a < 0 then invalid_arg "Instance.make: negative availability";
      if a > types.(typ).Server_type.count then
        invalid_arg "Instance.make: availability exceeds declared count";
      if a <> types.(typ).Server_type.count then varying := true
    done
  done;
  !varying

let make ?avail ~types ~load ~cost () =
  validate ~types ~load;
  let avail, size_varying =
    match avail with
    | None -> (default_avail types, false)
    | Some a -> (a, check_avail types a ~horizon:(Array.length load))
  in
  { types; load; cost; avail; time_independent = false; size_varying }

let make_static ?avail ~types ~load ~fns () =
  validate ~types ~load;
  if Array.length fns <> Array.length types then
    invalid_arg "Instance.make_static: one cost function per type required";
  let cost ~time:_ ~typ = fns.(typ) in
  let avail, size_varying =
    match avail with
    | None -> (default_avail types, false)
    | Some a -> (a, check_avail types a ~horizon:(Array.length load))
  in
  { types; load; cost; avail; time_independent = true; size_varying }

let horizon inst = Array.length inst.load
let num_types inst = Array.length inst.types

let with_loads ?(avail = false) inst load =
  validate ~types:inst.types ~load;
  let clamp time = min time (horizon inst - 1) in
  let cost ~time ~typ = inst.cost ~time:(clamp time) ~typ in
  let avail, size_varying =
    if avail then
      let a ~time ~typ = inst.avail ~time:(clamp time) ~typ in
      (a, check_avail inst.types a ~horizon:(Array.length load))
    else (default_avail inst.types, false)
  in
  { inst with load; cost; avail; size_varying }

let prefix inst t =
  if t < 1 || t > horizon inst then invalid_arg "Instance.prefix: bad length";
  { inst with load = Array.sub inst.load 0 t }

let has_down_costs inst =
  Array.exists (fun st -> st.Server_type.switch_down > 0.) inst.types

let fold_switching inst =
  if not (has_down_costs inst) then inst
  else
    let types =
      Array.map
        (fun st ->
          Server_type.make ~name:st.Server_type.name
            ~count:st.Server_type.count
            ~switching_cost:(st.Server_type.switching_cost +. st.Server_type.switch_down)
            ~cap:st.Server_type.cap ())
        inst.types
    in
    { inst with types }

let window inst ~start ~len =
  if start < 0 || len < 1 || start + len > horizon inst then
    invalid_arg "Instance.window: bad range";
  { inst with
    load = Array.sub inst.load start len;
    cost = (fun ~time ~typ -> inst.cost ~time:(start + time) ~typ);
    avail = (fun ~time ~typ -> inst.avail ~time:(start + time) ~typ) }

let idle_cost inst ~time ~typ = Convex.Fn.eval (inst.cost ~time ~typ) 0.

let max_count inst ~typ = inst.types.(typ).Server_type.count

let counts inst = Array.map (fun st -> st.Server_type.count) inst.types

let capacity_at inst ~time =
  let acc = ref 0. in
  for typ = 0 to num_types inst - 1 do
    acc := !acc +. (float_of_int (inst.avail ~time ~typ) *. inst.types.(typ).Server_type.cap)
  done;
  !acc

let feasible_load inst =
  let ok = ref true in
  for time = 0 to horizon inst - 1 do
    if inst.load.(time) > capacity_at inst ~time +. 1e-9 then ok := false
  done;
  !ok

let scale_slot inst ~time ~parts =
  if parts < 1 then invalid_arg "Instance.scale_slot: parts must be >= 1";
  let k = 1. /. float_of_int parts in
  Array.init (num_types inst) (fun typ -> Convex.Fn.scale k (inst.cost ~time ~typ))

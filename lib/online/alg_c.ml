type result = {
  schedule : Model.Schedule.t;
  sub_schedule : Model.Schedule.t;
  parts : int array;
  refined : Model.Instance.t;
  c_refined : float;
}

let parts_of_slot ~eps inst ~time =
  let d = Model.Instance.num_types inst in
  let worst = ref 0. in
  for typ = 0 to d - 1 do
    let beta = inst.Model.Instance.types.(typ).Model.Server_type.switching_cost in
    worst := Float.max !worst (Model.Instance.idle_cost inst ~time ~typ /. beta)
  done;
  max 1 (int_of_float (Float.ceil (float_of_int d /. eps *. !worst)))

let refine ~eps inst =
  let horizon = Model.Instance.horizon inst in
  let parts = Array.init horizon (fun time -> parts_of_slot ~eps inst ~time) in
  (* slot_of.(u) = original slot of refined slot u. *)
  let total = Array.fold_left ( + ) 0 parts in
  let slot_of = Array.make total 0 in
  let u = ref 0 in
  Array.iteri
    (fun time n ->
      for _ = 1 to n do
        slot_of.(!u) <- time;
        incr u
      done)
    parts;
  let load = Array.map (fun u -> inst.Model.Instance.load.(u)) slot_of in
  let cost ~time ~typ =
    let orig = slot_of.(time) in
    Convex.Fn.scale
      (1. /. float_of_int parts.(orig))
      (inst.Model.Instance.cost ~time:orig ~typ)
  in
  let refined =
    Model.Instance.make ~types:inst.Model.Instance.types ~load ~cost ()
  in
  (parts, slot_of, refined)

let run ~eps inst =
  if eps <= 0. then invalid_arg "Alg_c.run: eps must be positive";
  Obs.Span.with_ "alg_c.run" ~args:[ ("eps", string_of_float eps) ] @@ fun () ->
  let horizon = Model.Instance.horizon inst in
  let parts, slot_of, refined = refine ~eps inst in
  let b = Alg_b.run refined in
  let sub_schedule = b.Alg_b.schedule in
  (* mu(t): the sub-slot of U(t) whose configuration has the cheapest
     operating cost; g~_u is g_t / n~_t, so compare with the original g_t. *)
  let schedule = Array.make horizon [||] in
  let best = Array.make horizon infinity in
  Array.iteri
    (fun u x ->
      let t = slot_of.(u) in
      let g = Model.Cost.operating inst ~time:t x in
      if g < best.(t) then begin
        best.(t) <- g;
        schedule.(t) <- Array.copy x
      end)
    sub_schedule;
  { schedule;
    sub_schedule;
    parts;
    refined;
    c_refined = Alg_b.c_of_instance refined }

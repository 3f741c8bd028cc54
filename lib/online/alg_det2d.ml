type result = {
  schedule : Model.Schedule.t;
  prefix_last : Model.Config.t array;
  prefix_costs : float array;
  power_ups : (int * int * int) list;
  power_downs : (int * int * int) list;
}

let applicable inst =
  let ok = ref true in
  for time = 0 to Model.Instance.horizon inst - 1 do
    for typ = 0 to Model.Instance.num_types inst - 1 do
      if not (Convex.Fn.is_constant (inst.Model.Instance.cost ~time ~typ)) then
        ok := false
    done
  done;
  !ok
  && Array.for_all
       (fun st -> st.Model.Server_type.switching_cost > 0.)
       inst.Model.Instance.types

let run ?grid inst =
  let { Stepper.stepper; schedule; prefix_last; prefix_costs } =
    Stepper.run ?grid ~span:"alg_det2d.run" Stepper.alg_det2d inst
  in
  { schedule;
    prefix_last;
    prefix_costs;
    power_ups = Stepper.power_ups stepper;
    power_downs = Stepper.power_downs stepper }

type result = {
  schedule : Model.Schedule.t;
  prefix_last : Model.Config.t array;
  prefix_costs : float array;
  power_ups : (int * int * int) list;
  power_downs : (int * int * int) list;
}

let c_of_instance inst =
  let d = Model.Instance.num_types inst in
  let horizon = Model.Instance.horizon inst in
  let acc = ref 0. in
  for typ = 0 to d - 1 do
    let beta = inst.Model.Instance.types.(typ).Model.Server_type.switching_cost in
    let worst = ref 0. in
    for time = 0 to horizon - 1 do
      worst := Float.max !worst (Model.Instance.idle_cost inst ~time ~typ)
    done;
    acc := !acc +. (!worst /. beta)
  done;
  !acc

let run ?grid inst =
  let { Stepper.stepper; schedule; prefix_last; prefix_costs } =
    Stepper.run ?grid ~span:"alg_b.run" Stepper.alg_b inst
  in
  { schedule;
    prefix_last;
    prefix_costs;
    power_ups = Stepper.power_ups stepper;
    power_downs = Stepper.power_downs stepper }

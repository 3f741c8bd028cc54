type result = {
  schedule : Model.Schedule.t;
  prefix_last : Model.Config.t array;
  prefix_costs : float array;
  power_ups : (int * int * int) list;
  power_downs : (int * int * int) list;
}

let coinciding_types inst =
  let t0 = inst.Model.Instance.types.(0) in
  Array.for_all
    (fun st ->
      st.Model.Server_type.switching_cost = t0.Model.Server_type.switching_cost
      && st.Model.Server_type.cap = t0.Model.Server_type.cap)
    inst.Model.Instance.types

let applicable inst =
  let d = Model.Instance.num_types inst in
  inst.Model.Instance.types.(0).Model.Server_type.switching_cost > 0.
  && (not inst.Model.Instance.size_varying)
  && coinciding_types inst
  && (d = 1
     ||
     let ok = ref true in
     for time = 0 to Model.Instance.horizon inst - 1 do
       let fn0 = inst.Model.Instance.cost ~time ~typ:0 in
       for typ = 1 to d - 1 do
         if inst.Model.Instance.cost ~time ~typ <> fn0 then ok := false
       done
     done;
     !ok)

let c_of_instance inst =
  (* The pooled analogue of Theorem 13's constant: one effective type,
     so a single max_t l_t / beta term. *)
  let beta = inst.Model.Instance.types.(0).Model.Server_type.switching_cost in
  let worst = ref 0. in
  for time = 0 to Model.Instance.horizon inst - 1 do
    worst := Float.max !worst (Model.Instance.idle_cost inst ~time ~typ:0)
  done;
  !worst /. beta

let run ?grid inst =
  let { Stepper.stepper; schedule; prefix_last; prefix_costs } =
    Stepper.run ?grid ~span:"alg_homog.run" Stepper.alg_homog inst
  in
  { schedule;
    prefix_last;
    prefix_costs;
    power_ups = Stepper.power_ups stepper;
    power_downs = Stepper.power_downs stepper }

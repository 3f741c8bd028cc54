let log_src = Logs.Src.create "rightsizing.online" ~doc:"Online algorithms"

module Log = (val Logs.src_log log_src : Logs.LOG)

type result = {
  schedule : Model.Schedule.t;
  prefix_last : Model.Config.t array;
  prefix_costs : float array;
  runtimes : int option array;
  power_ups : (int * int * int) list;
}

let run ?grid inst =
  let { Stepper.stepper; schedule; prefix_last; prefix_costs } =
    Stepper.run ?grid ~span:"alg_a.run" Stepper.alg_a inst
  in
  let power_ups = Stepper.power_ups stepper in
  Log.debug (fun m ->
      m "algorithm A: T=%d, %d power-up events" (Model.Instance.horizon inst)
        (List.length power_ups));
  { schedule; prefix_last; prefix_costs; runtimes = Stepper.runtimes stepper; power_ups }

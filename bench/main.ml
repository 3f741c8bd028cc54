(* Benchmark harness.

   Two parts, both printed in one run of `dune exec bench/main.exe`:

   1. Bechamel micro-benchmarks — one entry per paper artifact, timing
      that artifact's computational kernel (the DP behind
      Figure 4/Theorem 8, the reduced-grid solve behind Theorem 21, one
      online step behind Theorems 8/13, ...), plus the low-level kernels
      (dispatch, ramp transform).  Next to each timing we print the
      telemetry counters one run of the kernel increments
      (Obs.Counter), so cost regressions can be traced to work
      regressions (more DP cells, more scalar minimisations, ...).

   2. The experiment tables/figures themselves (the rows and series the
      paper reports), regenerated through the same registry the CLI
      uses, with their machine-checked verdicts.

   Pass --quick to skip part 2 (timings only), or --tables-only to skip
   the timings.  --json FILE writes the timings as machine-readable JSON
   (the CI regression gate compares it against BENCH_BASELINE.json via
   scripts/bench_compare.py); --counters FILE writes the summed
   work-counter deltas across one instrumented run of every kernel. *)

open Bechamel
open Toolkit

(* --- shared fixtures (built once; benchmarks measure the kernels) --- *)

let fix_cpu_gpu = lazy (Core.Scenarios.cpu_gpu ~horizon:24 ())
let fix_three_tier = lazy (Core.Scenarios.three_tier ~horizon:30 ())
let fix_dynamic = lazy (Core.Scenarios.time_varying_costs ~horizon:16 ())
let fix_homogeneous = lazy (Core.Scenarios.homogeneous ~horizon:40 ())
let fix_maintenance = lazy (Core.Scenarios.maintenance ~horizon:30 ())

let fix_large =
  lazy
    (let types =
       [| Core.Server_type.make ~name:"small" ~count:60 ~switching_cost:2. ~cap:1. ();
          Core.Server_type.make ~name:"large" ~count:40 ~switching_cost:4. ~cap:2. () |]
     in
     let fns =
       [| Core.Fn.power ~idle:0.5 ~coef:0.8 ~expo:2.;
          Core.Fn.power ~idle:0.8 ~coef:0.5 ~expo:2. |]
     in
     let load = Core.Workload.diurnal ~horizon:16 ~period:16 ~base:5. ~peak:100. () in
     Core.Instance.make_static ~types ~load ~fns ())

(* Dense d=3 instance (11*7*5 = 385 states) with a peak load of 37
   (capacity 38): after each peak a dozen layers keep 256 or more
   finite cells for the reconstruction to scan. *)
let fix_pool_dense =
  lazy
    (let types =
       [| Core.Server_type.make ~name:"a" ~count:10 ~switching_cost:2. ~cap:1. ();
          Core.Server_type.make ~name:"b" ~count:6 ~switching_cost:4. ~cap:2. ();
          Core.Server_type.make ~name:"c" ~count:4 ~switching_cost:8. ~cap:4. () |]
     in
     let fns =
       [| Core.Fn.power ~idle:0.5 ~coef:0.8 ~expo:2.;
          Core.Fn.power ~idle:0.7 ~coef:0.5 ~expo:1.8;
          Core.Fn.power ~idle:1.1 ~coef:0.3 ~expo:1.5 |]
     in
     let load = Core.Workload.diurnal ~horizon:96 ~period:24 ~base:3. ~peak:37. () in
     Core.Instance.make_static ~types ~load ~fns ())

let fix_fig12 =
  lazy
    (let types = [| Core.Server_type.make ~name:"n" ~count:3 ~switching_cost:5. ~cap:1. () |] in
     let fns = [| Core.Fn.power ~idle:1. ~coef:1. ~expo:2. |] in
     let load = Core.Workload.diurnal ~horizon:24 ~period:12 ~base:0.2 ~peak:3. () in
     Core.Instance.make_static ~types ~load ~fns ())

let dispatch_pieces =
  lazy
    (Array.init 4 (fun j ->
         { Core.Dispatch.fn = Core.Fn.power ~idle:0.2 ~coef:(0.5 +. float_of_int j) ~expo:2.;
           upper = 0.5 }))

(* One monotone 64-cell grid line, d=3: fixed 2-piece prefix plus a
   swept slot whose capacity grows with the cell index — exactly what
   [Model.Cost.fill_line] hands to the warm-started batch solver. *)
let dispatch_line_cells =
  lazy
    (let cube = Core.Fn.power ~idle:0.3 ~coef:1. ~expo:3. in
     let quad = Core.Fn.power ~idle:0.2 ~coef:0.7 ~expo:2. in
     let prefix = [| { Core.Dispatch.fn = cube; upper = 0.3 };
                     { Core.Dispatch.fn = quad; upper = 0.25 } |] in
     Array.init 64 (fun v ->
         let cap = 0.02 *. float_of_int v in
         Array.append prefix [| { Core.Dispatch.fn = cube; upper = cap } |]))

(* The calibration kernel that scripts/bench_compare.py divides every
   timing by: an in-place ramp over a 64x64 plane with a fused [ops]
   add.  It is a frozen copy of the library's per-line strided ramp as
   BENCH_BASELINE.json recorded it, so that speeding up
   [Transform.ramp_grid_plane] cannot read as every other bench slowing
   down; the library ramp has its own, ungated entry. *)
module Calibration = struct
  let ramp_line_strided ~beta ~values (p : Offline.Plane.t) ~offset ~stride =
    let n = Array.length values in
    let first = ref 0 in
    while
      !first < n - 1 && Bigarray.Array1.unsafe_get p (offset + (!first * stride)) = infinity
    do
      incr first
    done;
    for i = !first + 1 to n - 1 do
      let climb = beta *. float_of_int (values.(i) - values.(i - 1)) in
      let prev = Bigarray.Array1.unsafe_get p (offset + ((i - 1) * stride)) in
      let cur = offset + (i * stride) in
      if prev +. climb < Bigarray.Array1.unsafe_get p cur then
        Bigarray.Array1.unsafe_set p cur (prev +. climb)
    done;
    for i = n - 2 downto 0 do
      let nxt = Bigarray.Array1.unsafe_get p (offset + ((i + 1) * stride)) in
      let cur = offset + (i * stride) in
      if nxt < Bigarray.Array1.unsafe_get p cur then Bigarray.Array1.unsafe_set p cur nxt
    done

  let ramp_line_last ~beta ~values ~ops (p : Offline.Plane.t) ~offset ~rank0 =
    ramp_line_strided ~beta ~values p ~offset ~stride:1;
    for i = 0 to Array.length values - 1 do
      Bigarray.Array1.unsafe_set p (offset + i)
        (Bigarray.Array1.unsafe_get p (offset + i) +. Array.unsafe_get ops (rank0 + i))
    done

  let ramp ~ops ~grid ~betas (p : Offline.Plane.t) =
    let d = Core.Grid.dim grid in
    let size = Core.Grid.size grid in
    let lengths = Array.init d (Core.Grid.axis_length grid) in
    for j = 0 to d - 1 do
      let values = Core.Grid.axis_values grid j in
      let n = lengths.(j) in
      let stride = ref 1 in
      for k = j + 1 to d - 1 do
        stride := !stride * lengths.(k)
      done;
      let stride = !stride in
      let block = stride * n in
      let beta = betas.(j) in
      let run k =
        if j = d - 1 then ramp_line_last ~beta ~values ~ops p ~offset:(k * n) ~rank0:(k * n)
        else
          ramp_line_strided ~beta ~values p
            ~offset:(((k / stride) * block) + (k mod stride))
            ~stride
      in
      for k = 0 to (size / max 1 n) - 1 do
        run k
      done
    done
end

(* Each bench keeps its kernel thunk alongside the Bechamel test so the
   timing loop can replay one run under Obs.Counter and report the work
   done per run. *)
let bench name f = (name, fun () -> ignore (f ()))

let benches =
  [ (* Figures: the kernels behind each rendering. *)
    bench "fig1+2: algorithm A full run (d=1, T=24)"
      (fun () -> Core.Alg_a.run (Lazy.force fix_fig12));
    bench "fig3: algorithm B full run (d=2, T=16)"
      (fun () -> Core.Alg_b.run (Lazy.force fix_dynamic));
    bench "fig4: explicit paper graph shortest path (d=2, T=24)"
      (fun () -> Core.Graph_paper.solve (Lazy.force fix_cpu_gpu));
    bench "fig5: witness X' construction (gamma=2)"
      (let inst = Core.Scenarios.homogeneous ~horizon:20 () in
       let opt = (Core.Offline_dp.solve_optimal inst).Core.Offline_dp.schedule in
       let grid _ = Core.Grid.power ~gamma:2. (Core.Instance.counts inst) in
       fun () -> Core.Approx_witness.build ~gamma:2. ~grid opt);
    (* Theorem kernels. *)
    bench "thm8: exact offline DP (d=2, T=24, m=(8,3))"
      (fun () -> Core.Offline_dp.solve_optimal (Lazy.force fix_cpu_gpu));
    bench "thm8: exact offline DP (d=3, T=30, m=(6,6,2))"
      (fun () -> Core.Offline_dp.solve_optimal (Lazy.force fix_three_tier));
    bench "thm8: algorithm A full run (d=2, T=24)"
      (fun () -> Core.Alg_a.run (Lazy.force fix_cpu_gpu));
    bench "cor9: algorithm A, load-independent (d=3, T=12)"
      (let inst = Core.Scenarios.load_independent ~d:3 ~horizon:12 ~seed:5 in
       fun () -> Core.Alg_a.run inst);
    bench "thm13: algorithm B full run (d=2, T=16)"
      (fun () -> Core.Alg_b.run (Lazy.force fix_dynamic));
    bench "thm15: algorithm C full run (eps=0.5, d=2, T=16)"
      (fun () -> Core.Alg_c.run ~eps:0.5 (Lazy.force fix_dynamic));
    bench "thm21: exact DP, large fleet (d=2, T=16, m=(60,40))"
      (fun () -> Core.Offline_dp.solve_optimal (Lazy.force fix_large));
    bench "thm21: (1+1)-approx DP, large fleet"
      (fun () -> Core.Offline_dp.solve_approx ~eps:1. (Lazy.force fix_large));
    bench "thm21: (1+0.25)-approx DP, large fleet"
      (fun () -> Core.Offline_dp.solve_approx ~eps:0.25 (Lazy.force fix_large));
    bench "thm22: exact DP with time-varying sizes (T=30)"
      (fun () -> Core.Offline_dp.solve_optimal (Lazy.force fix_maintenance));
    (* The "pool:" prefix stays: the name is this bench's key in
       BENCH_BASELINE.json. *)
    bench "pool: exact DP sequential (d=3, T=96, m=(10,6,4))"
      (fun () -> Core.Offline_dp.solve_optimal (Lazy.force fix_pool_dense));
    bench "chasing: hypercube adversary (d=12)"
      (fun () -> Core.Adversary.chasing_lower_bound ~d:12);
    bench "lower-bound: resonant bursts, A full run (d=2)"
      (let inst = Core.Scenarios.resonant_bursts ~d:2 ~rounds:4 in
       fun () -> Core.Alg_a.run inst);
    bench "baselines: LCP-1d full run (T=40)"
      (fun () -> Core.Baselines.lcp_1d (Lazy.force fix_homogeneous));
    bench "randomized: Alg_rand full run (d=2, T=24)"
      (let rng = Core.Prng.create 9 in
       fun () -> Core.Alg_rand.run ~rng:(Core.Prng.copy rng) (Lazy.force fix_cpu_gpu));
    bench "det2d: break-even full run (d=2, T=36, spot prices)"
      (let inst = Core.Scenarios.spot_market ~horizon:36 () in
       fun () -> Core.Alg_det2d.run inst);
    bench "homog: pooled full run (2x5 coinciding, T=36)"
      (let types =
         Array.init 2 (fun j ->
             Core.Server_type.make
               ~name:(Printf.sprintf "zone%d" j)
               ~count:5 ~switching_cost:4. ~cap:1. ())
       in
       let fns = Array.make 2 (Core.Fn.power ~idle:0.5 ~coef:0.8 ~expo:2.) in
       let load =
         Array.init 36 (fun t ->
             4. +. (3.5 *. sin (float_of_int t *. Float.pi /. 12.)))
       in
       let inst = Core.Instance.make_static ~types ~load ~fns () in
       fun () -> Core.Alg_homog.run inst);
    bench "arena: small race (3 scenarios, all solvers)"
      (let fixture =
         [ ("homogeneous", Core.Scenarios.homogeneous ~horizon:12 ());
           ("spot-market", Core.Scenarios.spot_market ~horizon:12 ());
           ("load-independent", Core.Scenarios.load_independent ~d:2 ~horizon:8 ~seed:3) ]
       in
       fun () -> Core.Arena.race fixture);
    bench "fractional: refined solve (d=1, k=8, T=24)"
      (let inst = Core.Scenarios.homogeneous ~horizon:24 () in
       let refined = Core.Fractional.refine ~granularity:8 inst in
       fun () -> Core.Offline_dp.solve_optimal refined);
    bench "lower-bound: reactive adversary build (rounds=6)"
      (fun () -> Core.Adversary.reactive_a ~rounds:6 ~beta:4. ~idle:1. ());
    bench "simulation: schedule execution (d=2, T=48)"
      (let inst = Core.Scenarios.cpu_gpu ~horizon:48 () in
       let { Core.Offline_dp.schedule; _ } = Core.Offline_dp.solve_optimal inst in
       fun () -> Core.Sim_dc.run_schedule inst schedule);
    bench "simulation: hysteresis controller (d=2, T=48)"
      (let inst = Core.Scenarios.cpu_gpu ~horizon:48 () in
       fun () ->
         Core.Sim_dc.run_controller inst
           (Core.Controllers.hysteresis ~up:0.8 ~down:0.3 inst));
    bench "ablation: reduced-grid online step (m=(200,100))"
      (let types =
         [| Core.Server_type.make ~name:"s" ~count:200 ~switching_cost:2. ~cap:1. ();
            Core.Server_type.make ~name:"l" ~count:100 ~switching_cost:5. ~cap:2. () |]
       in
       let fns =
         [| Core.Fn.power ~idle:0.5 ~coef:0.8 ~expo:2.;
            Core.Fn.power ~idle:0.9 ~coef:0.5 ~expo:2. |]
       in
       let load = Core.Workload.diurnal ~horizon:8 ~period:8 ~base:10. ~peak:320. () in
       let inst = Core.Instance.make_static ~types ~load ~fns () in
       let grid = Core.Grid.power ~gamma:1.5 (Core.Instance.counts inst) in
       fun () ->
         let e = Core.Prefix_opt.create ~grid inst in
         Core.Prefix_opt.step e);
    bench "forecast: holt-winters backtest (T=96)"
      (let rng = Core.Prng.create 5 in
       let series =
         Core.Workload.diurnal ~noise:0.1 ~rng ~horizon:96 ~period:24 ~base:1. ~peak:12. ()
       in
       fun () ->
         Core.Predictor.backtest
           ~make:(fun () ->
             Core.Predictor.holt_winters ~alpha:0.4 ~beta:0.05 ~gamma:0.3 ~period:24)
           series);
    bench "forecast: predictive horizon plan (window=4, T=24)"
      (let inst = Core.Scenarios.cpu_gpu ~horizon:24 () in
       fun () ->
         Core.Predictive.plan
           ~make:(fun () -> Core.Predictor.seasonal_naive ~period:24)
           ~window:4 inst);
    bench "planner: 2-candidate fleet optimisation"
      (let candidates =
         [| { Core.Fleet_planner.server =
                Core.Server_type.make ~name:"a" ~count:5 ~switching_cost:1.5 ~cap:1. ();
              capex = 3.;
              fn = Core.Fn.power ~idle:0.5 ~coef:0.6 ~expo:2. };
            { Core.Fleet_planner.server =
                Core.Server_type.make ~name:"b" ~count:3 ~switching_cost:4. ~cap:2. ();
              capex = 6.;
              fn = Core.Fn.power ~idle:0.9 ~coef:0.4 ~expo:2. } |]
       in
       let load = [| 2.; 4.; 6.; 5.; 2.; 1.; 3.; 6. |] in
       fun () -> Core.Fleet_planner.optimize ~candidates ~load ());
    bench "simulation: failure-injected run (rate 0.05)"
      (let inst = Core.Scenarios.cpu_gpu ~horizon:48 () in
       let { Core.Offline_dp.schedule; _ } = Core.Offline_dp.solve_optimal inst in
       let config =
         { Core.Sim_dc.boot_delay = [| 0; 0 |];
           carry_backlog = false;
           failures = Some { Core.Sim_dc.rate = 0.05; repair_slots = 3; seed = 7 } }
       in
       fun () -> Core.Sim_dc.run_schedule ~config inst schedule);
    (* Low-level kernels. *)
    bench "kernel: dispatch water-filling (d=4)"
      (fun () -> Core.Dispatch.solve (Lazy.force dispatch_pieces) ~total:1.);
    bench "kernel: dispatch golden-section (d=2)"
      (let pieces = Array.sub (Lazy.force dispatch_pieces) 0 2 in
       fun () -> Core.Dispatch.solve pieces ~total:0.9);
    bench "kernel: dispatch numeric water-filling (d=4)"
      (fun () -> Core.Dispatch.solve ~numeric:true (Lazy.force dispatch_pieces) ~total:1.);
    (* Warm vs cold line sweep: the same 64-cell monotone line (fixed
       d=3 prefix, swept slot growing cell by cell — the shape a layer
       fill produces) solved once with the warm-started batch solver and
       once as independent per-cell solves.  Their ratio is the payoff
       of carrying the multiplier bracket along the line. *)
    bench "dispatch: warm line sweep (d=3, 64 cells)"
      (let cells = Lazy.force dispatch_line_cells in
       let sw = Core.Dispatch.sweep () in
       fun () ->
         let out = Array.make (Array.length cells) nan in
         Core.Dispatch.sweep_start sw;
         Array.iteri (fun i pieces -> Core.Dispatch.sweep_solve sw pieces ~total:1. out i) cells;
         Core.Dispatch.sweep_finish sw;
         out);
    bench "dispatch: cold per-cell sweep (d=3, 64 cells)"
      (let cells = Lazy.force dispatch_line_cells in
       fun () ->
         Array.iter (fun cell -> ignore (Core.Dispatch.solve cell ~total:1.)) cells);
    (* Per-cell cost of the served layer fill: [Dp.fill_row] of the
       large-fleet scenario at slot 6 into a reused row, as
       [Prefix_opt.step] runs it.  61*41 = 2501 states, most of them one
       dispatch sweep cell; the batch tier's exponent 1.6 keeps the
       power kernel's [**] in the loop.  Divide the reported time by
       2501 for the ns/cell figure quoted in docs/performance.md. *)
    bench "dp: ns/cell layer fill (d=2, m=(60,40), 2501 cells)"
      (let inst = Core.Scenarios.large_fleet () in
       let grid = Core.Offline_dp.dense_grids inst 6 in
       let row = Array.make (Core.Grid.size grid) 0. in
       fun () -> Core.Offline_dp.fill_row inst grid ~time:6 row);
    bench "kernel: memo rank-table hit (d=2)"
      (let inst = Lazy.force fix_cpu_gpu in
       let cache = Core.Cost.make_cache inst in
       let grid = Core.Grid.dense (Core.Instance.counts inst) in
       ignore (Core.Cost.layer_table cache ~time:6 (Core.Grid.size grid) : float array);
       let x = [| 4; 2 |] in
       let rank =
         match Core.Grid.index_of grid x with Some i -> i | None -> assert false
       in
       ignore (Core.Cost.operating_rank cache ~time:6 ~rank x : float);
       fun () -> Core.Cost.operating_rank cache ~time:6 ~rank x);
    bench "kernel: g_t(x) evaluation (d=2)"
      (let inst = Lazy.force fix_cpu_gpu in
       fun () -> Core.Cost.operating inst ~time:6 [| 4; 2 |]);
    bench "kernel: ramp transform, 64x64 grid"
      (let grid = Core.Grid.dense [| 63; 63 |] in
       let n = Core.Grid.size grid in
       let filled = Offline.Plane.create n and work = Offline.Plane.create n in
       Offline.Plane.of_array (Array.init n (fun i -> float_of_int (i mod 97))) filled ~off:0;
       let ops = Array.make n 0. in
       fun () ->
         Offline.Plane.blit ~src:filled ~soff:0 ~dst:work ~doff:0 ~len:n;
         Calibration.ramp ~ops ~grid ~betas:[| 1.5; 2.5 |] work);
    bench "kernel: library ramp transform, 64x64 grid"
      (let grid = Core.Grid.dense [| 63; 63 |] in
       let n = Core.Grid.size grid in
       let filled = Offline.Plane.create n and work = Offline.Plane.create n in
       Offline.Plane.of_array (Array.init n (fun i -> float_of_int (i mod 97))) filled ~off:0;
       let ops = Array.make n 0. in
       fun () ->
         Offline.Plane.blit ~src:filled ~soff:0 ~dst:work ~doff:0 ~len:n;
         Core.Transform.ramp_grid_plane ~ops ~grid ~betas:[| 1.5; 2.5 |] work ~off:0);
    bench "kernel: prefix-opt single step (d=2)"
      (let inst = Lazy.force fix_cpu_gpu in
       fun () ->
         let e = Core.Prefix_opt.create inst in
         Core.Prefix_opt.step e);
    (* The steady-state online fill: 96 slots of the large-fleet
       scenario (2501 states), where [Prefix_opt.step] solves dispatch
       problems only on the lines' undominated prefixes.  The single
       step above is a cold slot 0. *)
    bench "online: algorithm A full run, large fleet (d=2, T=96)"
      (let inst = Core.Scenarios.large_fleet ~horizon:96 () in
       fun () -> Core.Alg_a.run inst);
    bench "kernel: snapshot render+parse (dp-frontier, 12 layers)"
      (let inst = Lazy.force fix_cpu_gpu in
       let captured = ref None in
       ignore
         (Core.Offline_dp.solve
            ~on_layer:(fun ~time thunk -> if time = 11 then captured := Some (thunk ()))
            inst);
       let payload = Core.Offline_dp.frontier_to_sexp (Option.get !captured) in
       fun () ->
         Core.Snapshot.parse ~kind:"dp-frontier"
           (Core.Snapshot.render ~kind:"dp-frontier" payload));
    (* Serving: the wire codec alone, then a full in-process request
       round-trip (decode -> daemon dispatch -> a re-fed slot rebuilt
       from the power events -> encode) — the protocol overhead a served decision pays on top of
       the stepping kernel. *)
    bench "server: codec encode+decode (feed, 8 loads)"
      (let req =
         Core.Server_protocol.Feed
           { id = "bench-0001"; seq = 128;
             loads = Array.init 8 (fun i -> 0.75 +. (float_of_int i *. 0.125)) }
       in
       fun () ->
         let frame = Core.Server_codec.encode (Core.Server_protocol.request_to_sexp req) in
         let dec = Core.Server_codec.decoder () in
         Core.Server_codec.feed_string dec frame;
         match Core.Server_codec.next dec with
         | Ok (Some sexp) -> Core.Server_protocol.request_of_sexp sexp
         | Ok None | Error _ -> assert false);
    bench "server: in-process round-trip (feed replay)"
      (let sock = Filename.temp_file "rs-bench" ".sock" in
       Sys.remove sock;
       at_exit (fun () -> try Sys.remove sock with Sys_error _ -> ());
       let d =
         match
           Core.Daemon.create { Core.Daemon.default_config with unix_path = Some sock }
         with
         | Ok d -> d
         | Error m -> failwith m
       in
       ignore
         (Core.Daemon.handle d
            (Core.Server_protocol.Create_session
               { id = "b"; scenario = "cpu-gpu"; max_horizon = None; alg = None }));
       (match
          Core.Daemon.handle d
            (Core.Server_protocol.Feed { id = "b"; seq = 0; loads = [| 1.0 |] })
        with
       | Core.Server_protocol.Decisions _ -> ()
       | _ -> failwith "bench setup: seed slot");
       let frame =
         Core.Server_codec.encode
           (Core.Server_protocol.request_to_sexp
              (Core.Server_protocol.Feed { id = "b"; seq = 0; loads = [| 1.0 |] }))
       in
       fun () ->
         let dec = Core.Server_codec.decoder () in
         Core.Server_codec.feed_string dec frame;
         match Core.Server_codec.next dec with
         | Ok (Some sexp) -> (
             match Core.Server_protocol.request_of_sexp sexp with
             | Ok req ->
                 Core.Server_codec.encode
                   (Core.Server_protocol.response_to_sexp (Core.Daemon.handle d req))
             | Error m -> failwith m)
         | Ok None | Error _ -> assert false);
    (* The daemon's own pattern, which the two entries above do not
       time: one long-lived decoder and output buffer per connection,
       fresh slots for 32 cpu-gpu sessions in turn (each recreated after
       4,096 slots, so the run's memory stays bounded).  A call encodes
       the client's frame, decodes it, steps the session through
       [Daemon.handle] and renders the reply. *)
    bench "server: steady-state feed round-trip (reused decoder, cpu-gpu)"
      (let sock = Filename.temp_file "rs-bench" ".sock" in
       Sys.remove sock;
       at_exit (fun () -> try Sys.remove sock with Sys_error _ -> ());
       let module P = Core.Server_protocol in
       let module Codec = Core.Server_codec in
       let d =
         match
           Core.Daemon.create { Core.Daemon.default_config with unix_path = Some sock }
         with
         | Ok d -> d
         | Error m -> failwith m
       in
       let ids = Array.init 32 (Printf.sprintf "s%02d") in
       let create id =
         match
           Core.Daemon.handle d
             (P.Create_session { id; scenario = "cpu-gpu"; max_horizon = None; alg = None })
         with
         | P.Session _ -> ()
         | _ -> failwith "bench setup: create"
       in
       Array.iter create ids;
       let seqs = Array.make 32 0 in
       let dec = Codec.decoder () and out = Codec.out () in
       let calls = ref 0 in
       fun () ->
         let i = !calls mod 32 in
         incr calls;
         if seqs.(i) = 4096 then begin
           ignore (Core.Daemon.handle d (P.Close { id = ids.(i) }));
           create ids.(i);
           seqs.(i) <- 0
         end;
         let load = 1. +. float_of_int ((!calls * 7) mod 17) in
         Codec.feed_string dec
           (Codec.encode
              (P.request_to_sexp (P.Feed { id = ids.(i); seq = seqs.(i); loads = [| load |] })));
         seqs.(i) <- seqs.(i) + 1;
         match Codec.next dec with
         | Ok (Some sexp) -> (
             match P.request_of_sexp sexp with
             | Ok req ->
                 Codec.out_clear out;
                 Codec.encode_to out (P.response_to_sexp (Core.Daemon.handle d req))
             | Error m -> failwith m)
         | Ok None | Error _ -> assert false);
    (* Telemetry: the histogram increment sits on the daemon's
       per-request and per-batch hot paths (one log, one multiply, a
       handful of stores — must stay well under 50ns), and the
       Prometheus render runs on every scrape. *)
    bench "obs: histogram observe"
      (let h = Core.Obs.Histogram.create () in
       let i = ref 0 in
       fun () ->
         incr i;
         Core.Obs.Histogram.observe h (float_of_int (1 + (!i land 0xffff))));
    bench "obs: to_prometheus render"
      (let h = Core.Obs.Histogram.create () in
       for i = 1 to 10_000 do
         Core.Obs.Histogram.observe h (float_of_int i)
       done;
       let counters = List.init 8 (fun i -> (Printf.sprintf "bench.c%d" i, i * 37)) in
       let gauges =
         List.init 8 (fun i ->
             (Printf.sprintf "bench.g%d" i, [ ("shard", string_of_int i) ], float_of_int i *. 1.5))
       in
       let histograms =
         let e = Core.Obs.Histogram.export h in
         List.init 4 (fun i -> (Printf.sprintf "bench.h%d" i, e))
       in
       fun () -> Core.Obs.Metrics_export.to_prometheus ~counters ~gauges ~histograms ());
    (* Scenario runner overhead minus the daemon: the strict sexp
       parse/validate plus per-session workload synthesis that every
       `scenario run` pays before the first frame is sent. *)
    bench "scenario: parse + workload synthesis (96x4)"
      (let text =
         "(scenario (name bench) (base cpu-gpu) (slots 96) (sessions 4) \
          (workload (diurnal (period 24) (base 0.1) (peak 0.45) (noise 0.05)) \
          (spikes (base 0) (height 0.3) (rate 0.04)) (clamp (lo 0) (hi 0.9))))"
       in
       fun () ->
         match Core.Scenario_def.parse text with
         | Error m -> failwith m
         | Ok def ->
             for k = 0 to def.Core.Scenario_def.sessions - 1 do
               ignore (Core.Scenario_def.loads def ~session_index:k)
             done);
    (* Durability store: one daemon round's worth of log appends
       (encode + write, fsync disabled to isolate the CPU path) — the
       daemon's O(delta) per-round durability cost — and a cold recovery
       over base + tail, which must stay O(base + tail) regardless of
       how many chunks have cemented. *)
    bench "store: append round (64 records, no fsync)"
      (let path = Filename.temp_file "rs-bench" ".log" in
       at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
       let w =
         match Core.Store_log.open_writer ~sync:false ~path () with
         | Ok (w, _) -> w
         | Error m -> failwith m
       in
       let records =
         List.init 64 (fun i ->
             Core.Store_log.Feed
               { id = Printf.sprintf "bench-%04d" (i mod 8); seq = i * 4;
                 loads = Array.init 4 (fun j -> 0.3 +. (float_of_int ((i + j) mod 7) *. 0.11)) })
       in
       fun () ->
         List.iter (Core.Store_log.append w) records;
         (match Core.Store_log.flush w with Ok () -> () | Error m -> failwith m);
         match Core.Store_log.reset w with Ok () -> () | Error m -> failwith m);
    bench "store: recover (base + 128-record tail, 512 cemented)"
      (let dir = Filename.temp_file "rs-bench" ".store" in
       Sys.remove dir;
       Sys.mkdir dir 0o755;
       at_exit (fun () ->
           try
             Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
             Sys.rmdir dir
           with Sys_error _ -> ());
       let record i =
         Core.Store_log.Feed
           { id = Printf.sprintf "bench-%04d" (i mod 16); seq = i;
             loads = Array.init 4 (fun j -> 0.2 +. (float_of_int ((i + j) mod 9) *. 0.09)) }
       in
       let base =
         Core.Sexp.List
           (Core.Sexp.Atom "sessions"
           :: List.init 16 (fun i ->
                  Core.Sexp.List
                    [ Core.Sexp.Atom (Printf.sprintf "bench-%04d" i);
                      Core.Sexp.Atom (String.make 64 'x') ]))
       in
       (match
          Core.Store_cemented.cement ~dir ~base ~records:(List.init 512 record) ()
        with
       | Ok _ -> ()
       | Error m -> failwith m);
       let w =
         match
           Core.Store_log.open_writer ~sync:false
             ~path:(Core.Store_cemented.tail_path ~dir) ()
         with
         | Ok (w, _) -> w
         | Error m -> failwith m
       in
       for r = 0 to 127 do
         Core.Store_log.append w (record (512 + r))
       done;
       (match Core.Store_log.flush w with Ok () -> () | Error m -> failwith m);
       Core.Store_log.close_writer w;
       fun () ->
         match Core.Store_cemented.recover ~dir with
         | Ok r -> assert (List.length r.Core.Store_cemented.tail.Core.Store_log.records = 128)
         | Error m -> failwith m)
  ]

(* One instrumented run of the kernel, after its timed runs: reset
   every counter, run once, render the non-zero deltas on a single line
   and count the minor-heap words the run allocated.  The deltas are
   also summed across benches into [counter_totals] (the --counters
   file). *)
let counter_totals : (string, int) Hashtbl.t = Hashtbl.create 64

let counters_per_run fn =
  Core.Obs.Counter.reset_all ();
  let before = Gc.minor_words () in
  fn ();
  let words = Gc.minor_words () -. before in
  let snap = Core.Obs.Counter.snapshot () in
  List.iter
    (fun (name, v) ->
      if v <> 0 then
        Hashtbl.replace counter_totals name
          (v + Option.value ~default:0 (Hashtbl.find_opt counter_totals name)))
    snap;
  let line = Core.Obs.Metrics_export.compact snap in
  (Printf.sprintf "%.0f" words, if line = "" then "-" else line)

(* Benchmarks whose timings the CI regression gate enforces: the DP
   solve paths this repo optimises.  Everything else is recorded in the
   JSON for information only. *)
let gated =
  [ "thm8: exact offline DP (d=2, T=24, m=(8,3))";
    "thm21: exact DP, large fleet (d=2, T=16, m=(60,40))";
    "pool: exact DP sequential (d=3, T=96, m=(10,6,4))";
    "kernel: dispatch water-filling (d=4)";
    "kernel: memo rank-table hit (d=2)";
    "server: codec encode+decode (feed, 8 loads)";
    "server: in-process round-trip (feed replay)";
    "obs: histogram observe";
    "obs: to_prometheus render";
    "scenario: parse + workload synthesis (96x4)";
    "det2d: break-even full run (d=2, T=36, spot prices)";
    "homog: pooled full run (2x5 coinciding, T=36)";
    "arena: small race (3 scenarios, all solvers)";
    "store: append round (64 records, no fsync)";
    "store: recover (base + 128-record tail, 512 cemented)" ]

(* Machine-independent reference kernel (a blit plus the plane ramp over
   a 64x64 grid: pure compute, no parallelism, no I/O): the comparator
   divides every timing by the calibration ratio between the two runs,
   so a uniformly slower CI runner does not read as a regression. *)
let calibration_bench = "kernel: ramp transform, 64x64 grid"

let write_json ~path results =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"rightsizer-bench/1\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"calibration\": \"%s\",\n"
       (Core.Obs.Events.json_escape calibration_bench));
  Buffer.add_string buf "  \"tolerance\": 0.25,\n";
  Buffer.add_string buf "  \"benches\": {\n";
  let n = List.length results in
  List.iteri
    (fun i (name, nanos) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": {\"nanos\": %.1f, \"gate\": %b}%s\n"
           (Core.Obs.Events.json_escape name)
           (if Float.is_nan nanos then -1. else nanos)
           (List.mem name gated)
           (if i = n - 1 then "" else ",")))
    results;
  Buffer.add_string buf "  }\n}\n";
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (Buffer.contents buf))

let run_timings () =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ~compaction:false ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let tbl =
    Core.Table.create
      ~header:[ "benchmark"; "time/run"; "r^2"; "minor words/run"; "work/run (Obs counters)" ]
  in
  let results = ref [] in
  List.iter
    (fun (name, fn) ->
      let test = Test.make ~name (Staged.stage fn) in
      List.iter
        (fun elt ->
          let result = Benchmark.run cfg instances elt in
          let ols =
            Analyze.one
              (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
              Instance.monotonic_clock result
          in
          let nanos =
            match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> Float.nan
          in
          results := (Test.Elt.name elt, nanos) :: !results;
          let pretty =
            if Float.is_nan nanos then "n/a"
            else if nanos > 1e9 then Printf.sprintf "%.2f s" (nanos /. 1e9)
            else if nanos > 1e6 then Printf.sprintf "%.2f ms" (nanos /. 1e6)
            else if nanos > 1e3 then Printf.sprintf "%.2f us" (nanos /. 1e3)
            else Printf.sprintf "%.0f ns" nanos
          in
          let r2 =
            match Analyze.OLS.r_square ols with
            | Some r -> Printf.sprintf "%.3f" r
            | None -> "-"
          in
          let words, work = counters_per_run fn in
          Core.Table.add_row tbl [ Test.Elt.name elt; pretty; r2; words; work ])
        (Test.elements test))
    benches;
  print_endline "== Bechamel micro-benchmarks (one kernel per paper artifact) ==";
  Core.Table.print ~align:Core.Table.Left tbl;
  print_newline ();
  List.rev !results

let run_tables () =
  print_endline "== Paper artifacts: regenerated figures and tables ==";
  print_newline ();
  List.iter
    (fun e ->
      Core.Report.print (e.Core.Experiment_registry.run ());
      print_newline ())
    Core.Experiment_registry.all

(* Value of "--flag FILE" in argv, if present. *)
let flag_value args flag =
  let rec go = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let tables_only = List.mem "--tables-only" args in
  let json = flag_value args "--json" in
  let counters = flag_value args "--counters" in
  if not tables_only then begin
    let results = run_timings () in
    (match json with
    | Some path ->
        write_json ~path results;
        Printf.printf "wrote %s\n" path
    | None -> ());
    match counters with
    | Some path ->
        let totals =
          List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counter_totals [])
        in
        Core.Obs.Metrics_export.write ~path totals;
        Printf.printf "wrote %s\n" path
    | None -> ()
  end;
  if not quick then run_tables ()

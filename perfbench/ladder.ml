(* The traced run: the workload's load phases against the spawned daemon
   (for the daemon's own scrape and CPU counts), then the ladder — the
   workload's first frames replayed through one layer's public entry
   point per rung, each call timed from outside as a span:

     1 wire frame        Client.request against the spawned daemon
     2 daemon            Daemon.handle, in process, configured alike
     3 session           Session.feed
     4 online            Prefix_opt.step + Stepper.step
     5 offline           Dp.fill_layer + Transform.ramp_grid_plane,
                         and Dp.solve with ?on_layer
     6 store             Store.Log.append/flush, Store.Cemented.recover

   Every rung must reproduce the wire rung's decisions bit for bit.  A
   rung's self time is its span minus the spans of the rung below for
   the same frame (and slot). *)

module P = Core.Server_protocol
module Client = Core.Server_client
module Session = Core.Server_session
module Counter = Core.Obs.Counter

let now_us = Clock.now_us

type t = {
  st : Serve.t;
  frames : int;  (* ladder frames per session *)
  mutable spans : (Arith.span * (string * int) list) list;
  wire : (int, Core.Config.t array) Hashtbl.t;  (* frame id -> served decisions *)
  r : Report.t;
}

let nsess l = Array.length l.st.Serve.sessions
let spf l = l.st.Serve.w.Gen.slots_per_frame
let frame_id l ~f ~i = (f * nsess l) + i
let lid i = Printf.sprintf "L%d" i

let loads l ~i ~f =
  Gen.loads ~seed:l.st.Serve.seed ~cap:l.st.Serve.cap ~stream:i ~from:(f * spf l) ~len:(spf l)

let span ?(counters = []) l ~rung ~name ~frame ~slot t0 t1 =
  l.spans <- ({ Arith.rung; name; frame; slot; t0; t1 }, counters) :: l.spans

let spans_of l ~name = List.filter_map (fun (s, _) -> if s.Arith.name = name then Some s else None) l.spans
let durations l ~name = Array.of_list (List.map Arith.duration (spans_of l ~name))

let fail l fmt =
  Printf.ksprintf
    (fun m ->
      Report.fail l.r;
      Report.note l.r "FAILED: %s" m)
    fmt

(* Compare one frame's decisions with the wire rung's. *)
let same l ~rung ~frame configs =
  Report.attempt l.r;
  match Hashtbl.find_opt l.wire frame with
  | Some served when served = configs -> ()
  | _ -> fail l "rung %d: frame %d differs from the served decisions" rung frame

let median_or_zero a = if Array.length a = 0 then 0. else Arith.median a

(* --- rung 1: the wire -------------------------------------------------- *)

(* Frames alternate between traced (a span is recorded) and untraced;
   both are timed to the end of their bookkeeping, so the ratio of
   their medians is the cost of tracing at the wire. *)
let rung_wire l (dm : Serve.daemon) =
  Array.iteri
    (fun i _ ->
      match
        Serve.request dm.ctl
          (P.Create_session
             { id = lid i; scenario = l.st.Serve.w.Gen.scenario; max_horizon = None;
               alg = None })
      with
      | P.Session _ -> ()
      | _ -> failwith "perfbench: ladder session refused")
    l.st.Serve.sessions;
  let traced = Floats.create () and untraced = Floats.create () in
  for f = 0 to l.frames - 1 do
    Array.iteri
      (fun i _ ->
        let frame = frame_id l ~f ~i in
        let t0 = now_us () in
        let reply =
          Serve.request dm.ctl (P.Feed { id = lid i; seq = f * spf l; loads = loads l ~i ~f })
        in
        (match reply with
        | P.Decisions { configs; _ } -> Hashtbl.replace l.wire frame configs
        | _ -> fail l "wire rung: frame %d refused" frame);
        if (f + i) land 1 = 0 then begin
          span l ~rung:1 ~name:"wire.feed" ~frame ~slot:(-1) t0 (now_us ());
          Floats.add traced (now_us () -. t0)
        end
        else Floats.add untraced (now_us () -. t0))
      l.st.Serve.sessions
  done;
  Arith.median (Floats.contents traced) /. Arith.median (Floats.contents untraced)

(* --- rungs 2 and 3: daemon and session ---------------------------------- *)

let rung_daemon l =
  let w = l.st.Serve.w in
  let cfg =
    { Core.Daemon.default_config with
      unix_path = Some (Filename.concat l.st.Serve.work "ladder.sock");
      log_dir =
        (if w.Gen.durable then Some (Filename.concat l.st.Serve.work "ladder-daemon-store")
         else None);
      cement_every = (if w.Gen.durable then w.Gen.cement_every else 4096) }
  in
  let d = match Core.Daemon.create cfg with Ok d -> d | Error m -> failwith m in
  Array.iteri
    (fun i _ ->
      ignore
        (Core.Daemon.handle d
           (P.Create_session
              { id = lid i; scenario = w.Gen.scenario; max_horizon = None; alg = None })))
    l.st.Serve.sessions;
  for f = 0 to l.frames - 1 do
    Array.iteri
      (fun i _ ->
        let frame = frame_id l ~f ~i in
        let t0 = now_us () in
        let reply =
          Core.Daemon.handle d (P.Feed { id = lid i; seq = f * spf l; loads = loads l ~i ~f })
        in
        span l ~rung:2 ~name:"daemon.handle" ~frame ~slot:(-1) t0 (now_us ());
        match reply with
        | P.Decisions { configs; _ } -> same l ~rung:2 ~frame configs
        | _ -> fail l "daemon rung: frame %d refused" frame)
      l.st.Serve.sessions
  done

let rung_session l =
  let sessions =
    Array.mapi
      (fun i _ ->
        match Session.create ~id:(lid i) (Serve.spec l.st) with
        | Ok s -> s
        | Error (_, m) -> failwith m)
      l.st.Serve.sessions
  in
  let codec = Floats.create () and bytes = Floats.create () in
  for f = 0 to l.frames - 1 do
    Array.iteri
      (fun i s ->
        let frame = frame_id l ~f ~i in
        let loads = loads l ~i ~f in
        let t0 = now_us () in
        let res = Session.feed s ~seq:(f * spf l) loads in
        span l ~rung:3 ~name:"session.feed" ~frame ~slot:(-1) t0 (now_us ());
        match res with
        | Error (_, m) -> fail l "session rung: frame %d: %s" frame m
        | Ok configs ->
            same l ~rung:3 ~frame configs;
            (* the codec's share of this frame: the request and its
               reply through sexp conversion, framing and decoding *)
            let req = P.Feed { id = lid i; seq = f * spf l; loads } in
            let rep = P.Decisions { id = lid i; seq = f * spf l; configs } in
            let t0 = now_us () in
            let a = Core.Server_codec.encode (P.request_to_sexp req) in
            let b = Core.Server_codec.encode (P.response_to_sexp rep) in
            let dec = Core.Server_codec.decoder () in
            Core.Server_codec.feed_string dec a;
            Core.Server_codec.feed_string dec b;
            let ok =
              match (Core.Server_codec.next dec, Core.Server_codec.next dec) with
              | Ok (Some x), Ok (Some y) -> (
                  match (P.request_of_sexp x, P.response_of_sexp y) with
                  | Ok _, Ok _ -> true
                  | _ -> false)
              | _ -> false
            in
            Floats.add codec (now_us () -. t0);
            Floats.add bytes (float_of_int (String.length a + String.length b));
            if not ok then fail l "codec round trip failed on frame %d" frame)
      sessions
  done;
  (sessions, Floats.contents codec, Floats.contents bytes)

(* --- rungs 4 and 5: the online step and its kernels --------------------- *)

let watched =
  List.map Counter.make
    [ "cost.rank_misses"; "dispatch.newton_evals"; "dispatch.analytic_solves";
      "dispatch.calls"; "dp.cells" ]

let counts () = List.map (fun c -> (Counter.name c, Counter.value c)) watched
let delta a b = List.map2 (fun (n, x) (_, y) -> (n, y - x)) a b

let session_instance l ~i =
  Gen.instance l.st.Serve.w.Gen.scenario
    (Gen.loads ~seed:l.st.Serve.seed ~cap:l.st.Serve.cap ~stream:i ~from:0
       ~len:(l.frames * spf l))

let rung_online l =
  Array.iteri
    (fun i _ ->
      let inst = session_instance l ~i in
      let engine = Core.Prefix_opt.create inst and stepper = Core.Stepper.alg_a inst in
      for f = 0 to l.frames - 1 do
        let frame = frame_id l ~f ~i in
        let configs =
          Array.init (spf l) (fun k ->
              let time = (f * spf l) + k in
              let t0 = now_us () in
              let hat = (Core.Prefix_opt.step engine).Core.Prefix_opt.last in
              let t1 = now_us () in
              let x = Core.Stepper.step stepper ~time ~hat in
              let t2 = now_us () in
              span l ~rung:4 ~name:"prefix_opt.step" ~frame ~slot:time t0 t1;
              span l ~rung:4 ~name:"stepper.step" ~frame ~slot:time t1 t2;
              x)
        in
        same l ~rung:4 ~frame configs
      done)
    l.st.Serve.sessions

(* Prefix_opt.step taken apart: the layer fill and the fused ramp, each
   its own span with the work counters it moved, then the same argmin
   and power-down rule. *)
let rung_kernels l =
  let total = ref [] in
  Array.iteri
    (fun i _ ->
      let inst = session_instance l ~i in
      let stepper = Core.Stepper.alg_a inst in
      let folded = Core.Instance.fold_switching inst in
      let grid = Core.Grid.dense (Core.Instance.counts folded) in
      let betas =
        Array.map (fun st -> st.Core.Server_type.switching_cost) folded.Core.Instance.types
      in
      let cache = Core.Cost.make_cache folded in
      let n = Core.Grid.size grid in
      let arrival = Offline.Plane.create n in
      Offline.Plane.fill_range arrival ~off:0 ~len:n infinity;
      (match Core.Grid.index_of grid (Core.Config.zero (Core.Grid.dim grid)) with
      | Some z -> Bigarray.Array1.set arrival z 0.
      | None -> failwith "perfbench: the all-off state is off the grid");
      for f = 0 to l.frames - 1 do
        let frame = frame_id l ~f ~i in
        let configs =
          Array.init (spf l) (fun k ->
              let time = (f * spf l) + k in
              let c0 = counts () in
              let t0 = now_us () in
              let ops = Core.Offline_dp.fill_layer cache grid ~time in
              let t1 = now_us () in
              let c1 = counts () in
              Core.Transform.ramp_grid_plane ~ops ~grid ~betas arrival ~off:0;
              let t2 = now_us () in
              let c2 = counts () in
              span l ~rung:5 ~name:"dp.fill_layer" ~frame ~slot:time ~counters:(delta c0 c1) t0 t1;
              span l ~rung:5 ~name:"transform.ramp" ~frame ~slot:time ~counters:(delta c1 c2) t1 t2;
              total := delta c0 c2 :: !total;
              let best = ref infinity and lo = ref (-1) in
              for idx = 0 to n - 1 do
                let c = Bigarray.Array1.get arrival idx in
                if c < !best then begin
                  best := c;
                  lo := idx
                end
              done;
              Core.Stepper.step stepper ~time ~hat:(Core.Grid.config_at grid !lo))
        in
        same l ~rung:5 ~frame configs
      done)
    l.st.Serve.sessions;
  let sum name = List.fold_left (fun a d -> a + List.assoc name d) 0 !total in
  (List.length !total, sum)

(* The exact solve (Dp.solve) split at its last ?on_layer callback: the
   forward pass, and the reconstruction after it; then the (1+eps) solve
   through the Core facade, checked exact <= approx <= (1+eps) exact and,
   for a served trace, OPT <= its online cost.  Returns per-set totals
   (median of [reps] repetitions) and the cells of one set. *)
let rung_solve l insts ~reps ~eps =
  let forward = Array.make reps 0. and back = Array.make reps 0. in
  let exact = Array.make reps 0. and approx = Array.make reps 0. and cells = ref 0 in
  for k = 0 to reps - 1 do
    List.iteri
      (fun j (inst, online) ->
        let c0 = counts () in
        let t0 = now_us () in
        let last = ref t0 in
        let res = Core.Offline_dp.solve ~on_layer:(fun ~time:_ _ -> last := now_us ()) inst in
        let t1 = now_us () in
        let d = delta c0 (counts ()) in
        span l ~rung:5 ~name:"dp.solve.forward" ~frame:(-1 - j) ~slot:(-1) ~counters:d t0 !last;
        span l ~rung:5 ~name:"dp.solve.reconstruct" ~frame:(-1 - j) ~slot:(-1) !last t1;
        forward.(k) <- forward.(k) +. ((!last -. t0) /. 1e6);
        back.(k) <- back.(k) +. ((t1 -. !last) /. 1e6);
        exact.(k) <- exact.(k) +. ((t1 -. t0) /. 1e6);
        if k = 0 then cells := !cells + List.assoc "dp.cells" d;
        let opt = res.Core.Offline_dp.cost in
        let t2 = Clock.now () in
        let a = Core.solve_approx ~eps inst in
        approx.(k) <- approx.(k) +. (Clock.now () -. t2);
        Offline_solve.check l.r ~eps inst (res.Core.Offline_dp.schedule, opt) a;
        match online with
        | None -> ()
        | Some sched ->
            let c = Core.Cost.schedule inst sched in
            Report.attempt l.r;
            if not (Arith.rel_le opt c) then fail l "OPT %.17g above the served cost %.17g" opt c)
      insts
  done;
  let m = Arith.median in
  (m forward, m back, !cells, m exact, m approx)

(* --- rung 6: the store -------------------------------------------------- *)

let time_recover dir ~reps =
  let times = Array.make reps 0. and tail = ref 0 in
  for k = 0 to reps - 1 do
    let t0 = now_us () in
    (match Core.Store_cemented.recover ~dir with
    | Ok r -> tail := List.length r.Core.Store_cemented.tail.Core.Store_log.records
    | Error m -> failwith ("perfbench: store recovery: " ^ m));
    times.(k) <- (now_us () -. t0) /. 1e3
  done;
  (Arith.median times, !tail)

(* The workload's traffic as the daemon logs it — one feed record per
   session per round, one flush (write + fsync) per round — cemented
   three times with the ladder sessions' table as the base, then
   recovered. *)
let rung_store l ~sessions ~rounds =
  let module Log = Core.Store_log in
  let dir = Filename.concat l.st.Serve.work "ladder-store" in
  Unix.mkdir dir 0o755;
  let writer =
    match Log.open_writer ~path:(Core.Store_cemented.tail_path ~dir) () with
    | Ok (w, _) -> w
    | Error m -> failwith m
  in
  let records = ref 0 and flushes = ref 0 in
  let append r =
    Log.append writer r;
    incr records
  in
  let ok = function Ok x -> x | Error m -> failwith ("perfbench: store: " ^ m) in
  let flush () =
    ok (Log.flush writer);
    incr flushes
  in
  Array.iteri
    (fun i _ ->
      append
        (Log.Create
           { id = lid i; scenario = l.st.Serve.w.Gen.scenario; max_horizon = None;
             alg = None; alg_used = "a" }))
    l.st.Serve.sessions;
  flush ();
  let base =
    Core.Sexp.List (Core.Sexp.Atom "sessions" :: Array.to_list (Array.map Session.save sessions))
  in
  let cements = Floats.create () in
  for f = 0 to rounds - 1 do
    let t0 = now_us () in
    Array.iteri
      (fun i _ -> append (Log.Feed { id = lid i; seq = f * spf l; loads = loads l ~i ~f }))
      l.st.Serve.sessions;
    flush ();
    span l ~rung:6 ~name:"store.append_flush" ~frame:(frame_id l ~f ~i:0) ~slot:(-1) t0 (now_us ());
    if (f + 1) mod (rounds / 4) = 0 && f + 1 < rounds then begin
      let t0 = now_us () in
      let scan = ok (Log.read ~path:(Core.Store_cemented.tail_path ~dir)) in
      ignore (ok (Core.Store_cemented.cement ~dir ~base ~records:scan.Log.records ()));
      ok (Log.reset writer);
      let t1 = now_us () in
      span l ~rung:6 ~name:"store.cement" ~frame:(frame_id l ~f ~i:0) ~slot:(-1) t0 t1;
      Floats.add cements ((t1 -. t0) /. 1e3)
    end
  done;
  Log.close_writer writer;
  let bytes = Serve.dir_bytes dir in
  (dir, Arith.median (Floats.contents cements),
   float_of_int bytes /. float_of_int (rounds * nsess l * spf l),
   float_of_int !records /. float_of_int !flushes)

(* --- the run ------------------------------------------------------------ *)

let write_spans l path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun ((s : Arith.span), counters) ->
          Printf.fprintf oc
            "{\"rung\": %d, \"name\": %S, \"frame\": %d, \"slot\": %d, \"start_us\": %.3f, \"end_us\": %.3f, \"counters\": {%s}}\n"
            s.rung s.name s.frame s.slot s.t0 s.t1
            (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%S: %d" n v) counters)))
        (List.rev l.spans))

(* Heap growth per served slot of one session: the words reachable from
   it at 1024 slots minus those at 256, so garbage and GC pacing do not
   enter. *)
let heap_kb_per_slot st =
  match Session.create ~id:"heap" (Serve.spec st) with
  | Error (_, m) -> failwith m
  | Ok s ->
      let feed_to n =
        let fed = Session.fed s in
        ignore
          (Session.feed s ~seq:fed
             (Gen.loads ~seed:st.Serve.seed ~cap:st.Serve.cap ~stream:0 ~from:fed ~len:(n - fed)))
      in
      let live () = Obj.reachable_words (Obj.repr s) in
      feed_to 256;
      let w0 = live () in
      feed_to 1024;
      let w1 = live () in
      float_of_int ((w1 - w0) * (Sys.word_size / 8)) /. 1024. /. 768.

let run ~kind ~seed ~seconds ~work ~spans r =
  let w = Gen.serve_of kind in
  let st = Serve.create ~w ~seed ~work r in
  let l =
    { st; frames = max 8 (512 / (w.Gen.sessions * w.Gen.slots_per_frame)); spans = [];
      wire = Hashtbl.create 1024; r }
  in
  (* the load phases, bracketed by scrapes and /proc readings *)
  ignore (Serve.pin (Unix.getpid ()) ~cpu:0);
  let dm, _, _ = Serve.spawn st ~store:(Filename.concat work "store") ~resume:false in
  Serve.pin_daemon dm;
  let pid = Core.Server_spawn.pid dm.Serve.proc in
  let s0 = Serve.scrape dm in
  let lat, lag = Serve.open_loop st dm ~rate:(Gen.open_rate w) ~seconds:(seconds /. 2.) in
  let s1 = Serve.scrape dm and cpu1 = Serve.cpu_s pid and fed1 = Serve.fed_total st in
  ignore (Serve.closed_loop st dm ~frames:(Gen.closed_frames w ~seconds));
  let s2 = Serve.scrape dm and cpu2 = Serve.cpu_s pid and fed2 = Serve.fed_total st in
  let hist a b name = Arith.bucket_delta ~before:(Serve.buckets a name) ~after:(Serve.buckets b name) in
  let count a b name = Serve.sample b name -. Serve.sample a name in
  let service = hist s0 s1 "server_request_latency_us" in
  let rounds = hist s1 s2 "server_batch_duration_us" in
  let service_p50 = Arith.bucket_quantile service 0.5 in
  if w.Gen.durable then
    Report.note r "daemon store: append p50 %.1f us, p99 %.1f us over %.0f flushes"
      (Arith.bucket_quantile (hist s0 s2 "store_append_latency_us") 0.5)
      (Arith.bucket_quantile (hist s0 s2 "store_append_latency_us") 0.99)
      (count s0 s2 "store_flushes");
  (* the ladder *)
  let overhead = rung_wire l dm in
  let recover =
    if not w.Gen.durable then None
    else begin
      Unix.kill pid Sys.sigkill;
      ignore (Core.Server_spawn.wait_exit dm.Serve.proc);
      let copy = Filename.concat work "killed-store" in
      Unix.mkdir copy 0o755;
      Array.iter
        (fun n ->
          let src = Filename.concat dm.Serve.store n in
          if not (Sys.is_directory src) then
            Out_channel.with_open_bin (Filename.concat copy n) (fun oc ->
                output_string oc (Serve.read_file src)))
        (Sys.readdir dm.Serve.store);
      Some (time_recover copy ~reps:5)
    end
  in
  Serve.stop dm;
  Serve.verify st;
  Gc.compact ();
  rung_daemon l;
  let sessions, codec, frame_bytes = rung_session l in
  rung_online l;
  let slots, sum = rung_kernels l in
  (* offline-solve solves its instances; a serve workload prices the
     first slots of its first served session, as the shadow audit does *)
  let solve_insts, eps =
    match kind with
    | Gen.Offline o -> (List.map (fun i -> (i, None)) (Offline_solve.build o ~seed), o.Gen.eps)
    | Gen.Serve _ ->
        let k = w.Gen.price_slots and s0 = st.Serve.sessions.(0) in
        if s0.Serve.got < k then failwith "perfbench: too few served slots to price";
        ( [ ( Gen.instance w.Gen.scenario
                (Gen.loads ~seed ~cap:st.Serve.cap ~stream:0 ~from:0 ~len:k),
              Some (Core.Schedule.make (Serve.decisions st s0 ~len:k)) ) ],
          0.25 )
  in
  let forward_s, reconstruct_s, cells, solve_s, approx_s = rung_solve l solve_insts ~reps:3 ~eps in
  let store_dir, cement_ms, log_bytes, ladder_records_per_flush =
    rung_store l ~sessions ~rounds:1000
  in
  let recover_ms, tail_records =
    match recover with Some x -> x | None -> time_recover store_dir ~reps:5
  in
  let heap = heap_kb_per_slot st in
  write_spans l spans;
  (* the ladder table *)
  let self name ~parents ~children =
    let kids = List.concat_map (fun n -> spans_of l ~name:n) children in
    Array.of_list (Arith.self_times ~parents:(spans_of l ~name:parents) ~children:kids)
    |> fun a -> (name, a)
  in
  let selfs =
    [ self "wire.feed" ~parents:"wire.feed" ~children:[ "daemon.handle" ];
      self "daemon.handle" ~parents:"daemon.handle" ~children:[ "session.feed" ];
      self "session.feed" ~parents:"session.feed" ~children:[ "prefix_opt.step"; "stepper.step" ];
      self "prefix_opt.step" ~parents:"prefix_opt.step"
        ~children:[ "dp.fill_layer"; "transform.ramp" ] ]
  in
  Report.note r "%-22s %8s %14s %14s" "rung" "calls" "p50 span (us)" "p50 self (us)";
  List.iter
    (fun name ->
      let d = durations l ~name in
      Report.note r "%-22s %8d %14.3f %14s" name (Array.length d) (median_or_zero d)
        (match List.assoc_opt name selfs with
        | Some a -> Printf.sprintf "%.3f" (Arith.median a)
        | None -> "-"))
    [ "wire.feed"; "daemon.handle"; "session.feed"; "prefix_opt.step"; "stepper.step";
      "dp.fill_layer"; "transform.ramp"; "dp.solve.forward"; "dp.solve.reconstruct";
      "store.append_flush"; "store.cement" ];
  Report.note r "spans: %d written to %s" (List.length l.spans) spans;
  Report.describe r "open-loop frame latency (us)" (Array.map (( *. ) 1e6) lat) ~unit:"us";
  Report.describe r "open-loop send lag (ms)" (Array.map (( *. ) 1e3) lag) ~unit:"ms";
  let appends = durations l ~name:"store.append_flush" in
  Report.describe r "store append+flush (us)" appends ~unit:"us";
  let m = Report.metric r in
  let fslots = float_of_int slots in
  m "server.codec_us" "us" (Arith.median codec);
  m "server.frame_bytes" "B" (Arith.median frame_bytes);
  m "server.handle_us" "us" (Arith.median (durations l ~name:"daemon.handle"));
  m "server.session_feed_us" "us"
    (Arith.median (durations l ~name:"session.feed") /. float_of_int (spf l));
  m "server.service_p50_us" "us" service_p50;
  m "server.service_p99_us" "us" (Arith.bucket_quantile service 0.99);
  m "server.wire_p50_us" "us" ((1e6 *. Arith.median lat) -. service_p50);
  m "server.round_p50_us" "us" (Arith.bucket_quantile rounds 0.5);
  m "server.sessions_per_round" "count"
    (count s1 s2 "server_batch_size" /. count s1 s2 "server_batches");
  m "server.cpu_us_per_decision" "us" (1e6 *. (cpu2 -. cpu1) /. float_of_int (fed2 - fed1));
  m "online.prefix_opt_step_us" "us" (Arith.median (durations l ~name:"prefix_opt.step"));
  m "online.prefix_opt_self_us" "us" (Arith.median (List.assoc "prefix_opt.step" selfs));
  m "online.stepper_step_us" "us" (Arith.median (durations l ~name:"stepper.step"));
  m "online.heap_kb_per_slot" "kB" heap;
  m "offline.fill_layer_us" "us" (Arith.median (durations l ~name:"dp.fill_layer"));
  m "offline.ramp_us" "us" (Arith.median (durations l ~name:"transform.ramp"));
  m "offline.solve_s" "s" solve_s;
  m "offline.approx_solve_s" "s" approx_s;
  m "offline.forward_s" "s" forward_s;
  m "offline.reconstruct_s" "s" reconstruct_s;
  m "offline.cells" "count" (float_of_int cells);
  m "model.rank_misses_per_slot" "count" (float_of_int (sum "cost.rank_misses") /. fslots);
  m "convex.newton_evals_per_cell" "count"
    (float_of_int (sum "dispatch.newton_evals") /. float_of_int (sum "cost.rank_misses"));
  m "convex.analytic_share" "ratio"
    (float_of_int (sum "dispatch.analytic_solves") /. float_of_int (sum "dispatch.calls"));
  m "store.append_p50_us" "us" (Arith.quantile appends 0.5);
  m "store.append_p99_us" "us" (Arith.quantile appends 0.99);
  m "store.cement_ms" "ms" cement_ms;
  (* the durable daemon's own batching; elsewhere the ladder store's *)
  m "store.records_per_flush" "count"
    (if w.Gen.durable then count s0 s2 "store_appends" /. count s0 s2 "store_flushes"
     else ladder_records_per_flush);
  m "store.recover_ms" "ms" recover_ms;
  m "store.tail_records" "count" (float_of_int tail_records);
  m "store.log_bytes_per_decision" "B" log_bytes;
  m "driver.latency_p50_ms" "ms" (1e3 *. Arith.median lat);
  m "driver.latency_p99_ms" "ms" (1e3 *. Arith.quantile lat 0.99);
  m "driver.lag_p99_ms" "ms" (1e3 *. Arith.quantile lag 0.99);
  m "driver.trace_overhead" "ratio" overhead

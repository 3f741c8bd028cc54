(* The serve workloads against a spawned [rightsizer serve]: set-up,
   the closed- and open-loop phases, the crash and --resume respawn, and
   the bit-for-bit oracle. *)

module P = Core.Server_protocol
module Spawn = Core.Server_spawn
module Client = Core.Server_client
module Session = Core.Server_session

let now = Clock.now
let bin = "_build/default/bin/rightsizer.exe"

type sess = {
  idx : int;               (* also the session's load stream *)
  id : string;
  conn : int;
  mutable sent : int;      (* slots sent *)
  mutable got : int;       (* slots answered *)
  mutable dec : int array; (* answered decisions, [d] ints per slot *)
  sched : float Queue.t;   (* due time of each in-flight frame *)
}

type t = {
  w : Gen.serve;
  seed : int;
  cap : float;
  d : int;
  work : string;
  sessions : sess array;
  by_id : (string, sess) Hashtbl.t;
  r : Report.t;
}

type daemon = {
  proc : Spawn.t;
  ctl : Client.t;
  conns : Wire.t array;
  store : string;
}

let fail ?n st fmt =
  Printf.ksprintf
    (fun m ->
      Report.fail ?n st.r;
      Report.note st.r "FAILED: %s" m)
    fmt

let create ~w ~seed ~work r =
  let d =
    match Core.Scenarios.by_name w.Gen.scenario with
    | Some mk -> Core.Instance.num_types (mk None)
    | None -> invalid_arg ("perfbench: unknown scenario " ^ w.Gen.scenario)
  in
  let sessions =
    Array.init w.Gen.sessions (fun i ->
        { idx = i; id = Printf.sprintf "s%d" i; conn = i mod w.Gen.conns; sent = 0;
          got = 0; dec = Array.make (1024 * d) 0; sched = Queue.create () })
  in
  let by_id = Hashtbl.create 64 in
  Array.iter (fun s -> Hashtbl.replace by_id s.id s) sessions;
  { w; seed; cap = Gen.capacity w.Gen.scenario; d; work; sessions; by_id; r }

let spec st = { Session.scenario = st.w.Gen.scenario; max_horizon = None; alg = None }
let sock st = Filename.concat st.work "d.sock"

let request ctl req =
  match Client.request ctl req with
  | Ok r -> r
  | Error m -> failwith ("perfbench: control connection: " ^ m)

(* Create every session (fed 0) or re-attach it (fed = what the daemon
   recovered) in one pipelined batch, as a client with many sessions
   would; returns each session's fed count. *)
let attach st c =
  Array.iter
    (fun s ->
      Wire.queue c
        (P.Create_session
           { id = s.id; scenario = st.w.Gen.scenario; max_horizon = None; alg = None }))
    st.sessions;
  Wire.flush c;
  let fed = Array.make (Array.length st.sessions) (-1) and left = ref (Array.length st.sessions) in
  while !left > 0 do
    Wire.read c (function
      | P.Session { id; fed = n; _ } when Hashtbl.mem st.by_id id ->
          fed.((Hashtbl.find st.by_id id).idx) <- n;
          decr left
      | _ -> failwith "perfbench: create-session refused")
  done;
  fed

(* Spawn, poll the socket until it accepts, and attach every session on
   the first load connection: the user-visible set-up (or recovery).
   Returns the daemon, each session's fed count, and the moment the last
   session was attached. *)
let spawn st ~store ~resume =
  let cfg = Spawn.config ~bin ~sock:(sock st) ~log:(Filename.concat st.work "daemon.log") in
  let cfg =
    if st.w.Gen.durable then
      { cfg with
        log_dir = Some store;
        cement_every = Some st.w.Gen.cement_every;
        resume = (if resume then Some (Filename.concat st.work "no-snapshot") else None) }
    else cfg
  in
  let proc = match Spawn.start cfg with Ok p -> p | Error m -> failwith m in
  let deadline = now () +. 20. in
  let rec ready () =
    if not (Spawn.alive proc) then
      failwith ("perfbench: the daemon exited: " ^ Spawn.log_tail proc);
    match Wire.connect (sock st) with
    | c -> c
    | exception Unix.Unix_error _ when now () < deadline ->
        Unix.sleepf 0.0002;
        ready ()
    | exception Unix.Unix_error (e, _, _) ->
        failwith ("perfbench: the daemon never bound its socket: " ^ Unix.error_message e)
  in
  let first = ready () in
  let fed = attach st first in
  let ready_at = now () in
  let ctl = match Client.connect (Client.Unix_path (sock st)) with Ok c -> c | Error m -> failwith m in
  (match Client.hello ctl with Ok () -> () | Error m -> failwith m);
  let conns = Array.init st.w.Gen.conns (fun k -> if k = 0 then first else Wire.connect (sock st)) in
  ({ proc; ctl; conns; store }, fed, ready_at)

(* The generator runs on CPU 0 and the daemon on CPU 1, so the two
   never share a CPU or trade places between runs. *)
let pin pid ~cpu =
  let null = Unix.openfile "/dev/null" [ O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      match
        Unix.create_process "taskset"
          [| "taskset"; "-a"; "-p"; "-c"; string_of_int cpu; string_of_int pid |]
          Unix.stdin null null
      with
      | exception Unix.Unix_error _ -> false
      | p -> ( match Unix.waitpid [] p with _, Unix.WEXITED 0 -> true | _ -> false))

let pin_daemon dm = ignore (pin (Spawn.pid dm.proc) ~cpu:1)

let stop dm =
  Array.iter Wire.close dm.conns;
  Client.close dm.ctl;
  ignore (Spawn.stop ~grace_s:5. dm.proc)

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

let dir_bytes dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun acc n ->
          match Unix.stat (Filename.concat dir n) with
          | { Unix.st_kind = S_REG; st_size; _ } -> acc + st_size
          | _ | (exception Unix.Unix_error _) -> acc)
        0 names

let read_file path = In_channel.with_open_bin path In_channel.input_all

let vmhwm_mb pid =
  match Arith.vmhwm_kb (read_file (Printf.sprintf "/proc/%d/status" pid)) with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "perfbench: no VmHWM in /proc status"

let cpu_s pid =
  (* USER_HZ is 100 on every Linux ABI *)
  match Arith.cpu_ticks (read_file (Printf.sprintf "/proc/%d/stat" pid)) with
  | Some t -> float_of_int t /. 100.
  | None -> failwith "perfbench: unparsable /proc stat"

(* --- traffic --------------------------------------------------------- *)

let spf st = st.w.Gen.slots_per_frame

let send st dm s ~due =
  let loads = Gen.loads ~seed:st.seed ~cap:st.cap ~stream:s.idx ~from:s.sent ~len:(spf st) in
  Wire.queue dm.conns.(s.conn) (P.Feed { id = s.id; seq = s.sent; loads });
  s.sent <- s.sent + spf st;
  Queue.add due s.sched;
  Report.attempt st.r

let flush_all dm = Array.iter (fun c -> if Buffer.length c.Wire.out > 0 then Wire.flush c) dm.conns

let record st s configs =
  let n = Array.length configs in
  let need = (s.got + n) * st.d in
  if need > Array.length s.dec then begin
    let bigger = Array.make (max need (2 * Array.length s.dec)) 0 in
    Array.blit s.dec 0 bigger 0 (s.got * st.d);
    s.dec <- bigger
  end;
  Array.iteri (fun k c -> Array.blit c 0 s.dec ((s.got + k) * st.d) st.d) configs;
  s.got <- s.got + n

(* One reply: the session it answers, its latency from the frame's due
   time, and the number of fresh decisions; [None] on an error reply. *)
let on_reply st ~at = function
  | P.Decisions { id; seq; configs } -> (
      match Hashtbl.find_opt st.by_id id with
      | Some s when seq = s.got ->
          record st s configs;
          let due = Queue.pop s.sched in
          Some (s, at -. due, Array.length configs)
      | Some s ->
          ignore (Queue.pop s.sched);
          fail st "reply for %s at seq %d, expected %d" id seq s.got;
          None
      | None ->
          fail st "reply for unknown session %s" id;
          None)
  | P.Error { code; msg; _ } ->
      (* an error names no session, so the in-flight accounting is lost *)
      failwith
        (Printf.sprintf "perfbench: error reply %s: %s" (P.error_code_to_string code) msg)
  | _ ->
      fail st "unexpected reply to a feed";
      None

let inflight st = Array.fold_left (fun acc s -> acc + Queue.length s.sched) 0 st.sessions

(* The generator never sleeps while traffic is in flight: a zero
   timeout keeps its CPU awake, so neither a frame's send nor a reply's
   receipt waits for a wakeup. *)
let poll st dm ~deadline f =
  if now () > deadline then failwith "perfbench: the daemon stopped answering";
  Wire.poll dm.conns (fun _ reply -> f (now ()) (on_reply st ~at:(now ()) reply))

(* Closed loop: every session keeps one frame in flight until it has
   sent [frames].  The work is fixed, so the run's memory and the number
   of cement crossings are too.  Returns the fresh decisions per second
   over the whole loop, stalls and cements included, and (printed only)
   the median over ten chunks of equal decision counts, which leaves
   such stalls out. *)
let closed_loop st dm ~frames =
  let quota = Array.map (fun s -> s.sent + (frames * spf st)) st.sessions in
  let t0 = now () in
  Array.iter (fun s -> send st dm s ~due:t0) st.sessions;
  flush_all dm;
  let done_at = Floats.create () in
  while inflight st > 0 do
    poll st dm ~deadline:(t0 +. 120.) (fun at -> function
      | Some (s, _, n) ->
          for _ = 1 to n do Floats.add done_at at done;
          if s.sent < quota.(s.idx) then send st dm s ~due:at
      | None -> ());
    flush_all dm
  done;
  let done_at = Floats.contents done_at in
  let n = Array.length done_at in
  (float_of_int n /. (done_at.(n - 1) -. t0), Arith.chunk_rate ~t0 done_at ~chunks:10)

(* Open loop: frames go out round-robin over the sessions at [rate]
   frames/s whatever the replies do; each is timed from its due time.
   Returns latencies and how late each frame was sent. *)
let open_loop st dm ~rate ~seconds =
  let n = int_of_float (rate *. seconds) in
  let lat = Array.make n 0. and lag = Array.make n 0. in
  let t0 = now () +. 0.001 in
  let due i = t0 +. (float_of_int i /. rate) in
  let sent = ref 0 and answered = ref 0 in
  let nsess = Array.length st.sessions in
  while !answered < n do
    let t = now () in
    while !sent < n && due !sent <= t do
      lag.(!sent) <- t -. due !sent;
      send st dm st.sessions.(!sent mod nsess) ~due:(due !sent);
      incr sent
    done;
    flush_all dm;
    poll st dm ~deadline:(t0 +. seconds +. 60.) (fun _ -> function
      | Some (_, l, _) ->
          lat.(!answered) <- l;
          incr answered
      | None -> incr answered)
  done;
  (lat, lag)

(* --- scrape ---------------------------------------------------------- *)

let scrape dm =
  match request dm.ctl P.Metrics with
  | P.Metrics_reply { body } -> Core.Obs.Metrics_export.parse_prometheus body
  | _ -> failwith "perfbench: metrics request refused"

let sample samples name =
  List.find_map
    (fun (s : Core.Obs.Metrics_export.sample) ->
      if s.s_name = name && s.s_labels = [] then Some s.s_value else None)
    samples
  |> Option.value ~default:0.

let buckets samples name : Arith.buckets =
  List.filter_map
    (fun (s : Core.Obs.Metrics_export.sample) ->
      match s.s_labels with
      | [ ("le", le) ] when s.s_name = name ^ "_bucket" ->
          let le =
            match String.lowercase_ascii le with
            | "+inf" | "inf" -> Float.infinity
            | le -> float_of_string le
          in
          Some (le, s.s_value)
      | _ -> None)
    samples
  |> List.sort (fun (a, _) (b, _) -> Float.compare a b)

(* --- output gate ----------------------------------------------------- *)

(* Replay every session's trace through an in-process Session and
   compare each served decision bit for bit; a frame with any differing
   decision counts as failed. *)
let verify st =
  let wrong = ref 0 and checked = ref 0 in
  Array.iter
    (fun s ->
      match Session.create ~id:s.id (spec st) with
      | Error (_, m) -> fail st "oracle session: %s" m
      | Ok o ->
          let t = ref 0 in
          while !t < s.got do
            let len = min (spf st) (s.got - !t) in
            let loads = Gen.loads ~seed:st.seed ~cap:st.cap ~stream:s.idx ~from:!t ~len in
            (match Session.feed o ~seq:!t loads with
            | Error (_, m) -> fail st "oracle feed %s@%d: %s" s.id !t m
            | Ok configs ->
                let same = ref true in
                Array.iteri
                  (fun k c ->
                    for j = 0 to st.d - 1 do
                      if c.(j) <> s.dec.(((!t + k) * st.d) + j) then same := false
                    done)
                  configs;
                if not !same then incr wrong);
            checked := !checked + len;
            t := !t + len
          done)
    st.sessions;
  if !wrong > 0 then fail ~n:!wrong st "%d frames differ from the oracle" !wrong;
  Report.note st.r "oracle: %d served decisions checked bit for bit, %d frames differ"
    !checked !wrong

let decisions st s ~len =
  Array.init len (fun t -> Array.sub s.dec (t * st.d) st.d)

(* --- durability ------------------------------------------------------ *)

(* Keep every session busy until each has [frames] more frames answered
   — the traffic after a --resume respawn. *)
let burst st dm ~frames =
  let target = Array.map (fun s -> s.got + (frames * spf st)) st.sessions in
  Array.iter (fun s -> send st dm s ~due:(now ())) st.sessions;
  flush_all dm;
  let deadline = now () +. 60. in
  while inflight st > 0 do
    poll st dm ~deadline (fun at -> function
      | Some (s, _, _) when s.got < target.(s.idx) -> send st dm s ~due:at
      | Some _ | None -> ());
    flush_all dm
  done

(* SIGKILL the idle daemon (every reply is in, so every answered slot
   was logged and fsync'd), then respawn it with --resume and re-attach
   every session.  Returns the new daemon and the seconds from the kill
   until every session is back at its full fed count. *)
let crash_and_resume st dm =
  let t0 = now () in
  Unix.kill (Spawn.pid dm.proc) Sys.sigkill;
  ignore (Spawn.wait_exit dm.proc);
  Array.iter Wire.close dm.conns;
  Client.close dm.ctl;
  let dm', fed, ready_at = spawn st ~store:dm.store ~resume:true in
  Array.iteri
    (fun i s ->
      Report.attempt st.r;
      if fed.(i) <> s.got then
        fail st "%s re-attached at %d slots, %d were answered" s.id fed.(i) s.got)
    st.sessions;
  pin_daemon dm';
  (dm', ready_at -. t0)

(* --- the end-to-end run ---------------------------------------------- *)

let fed_total st = Array.fold_left (fun a s -> a + s.got) 0 st.sessions

let trials = 8

(* Spawns per trial that only time set-up: the gated set-up time is the
   median of [trials * (1 + setup_extra)] set-ups spread over the run. *)
let setup_extra = 3

type trial = {
  st : t;
  setups : float list;
  dps : float;        (* closed loop, whole-loop rate *)
  chunk_dps : float;  (* closed loop, median chunk rate (printed only) *)
  lat : float array;
  lag : float array;
  rss : float;
}

(* Set-up of a daemon that then serves nothing and stops. *)
let setup_only st ~store =
  let t0 = now () in
  let dm, _, ready_at = spawn st ~store ~resume:false in
  stop dm;
  rm_rf store;
  ready_at -. t0

(* One trial on a fresh daemon: set-up, the closed loop, the open loop.
   Both phases carry fixed traffic (the closed loop by its frame count,
   the open loop by its rate), so every trial sends the same frames and
   the memory high-water mark and the cement crossings do not depend on
   how fast the daemon happens to run.  The last trial of a durable
   workload ends with the crash and the --resume respawn. *)
let trial ~w ~seed ~work ~frames ~seconds ~last r =
  let st = create ~w ~seed ~work r in
  let store = Filename.concat work "store" in
  let extra = List.init setup_extra (fun _ -> setup_only st ~store) in
  let t0 = now () in
  let dm, _, ready_at = spawn st ~store ~resume:false in
  Report.attempt r ~n:(Array.length st.sessions);
  pin_daemon dm;
  let dps, chunk_dps = closed_loop st dm ~frames in
  let lat, lag = open_loop st dm ~rate:(Gen.open_rate w) ~seconds in
  let rss = vmhwm_mb (Spawn.pid dm.proc) in
  let dm =
    if not (w.Gen.durable && last) then dm
    else begin
      let samples = scrape dm in
      Report.note r "log: %.1f bytes per decision; %g cements, %.1f ms each on average"
        (float_of_int (dir_bytes store) /. float_of_int (fed_total st))
        (sample samples "store_cement_duration_us_count")
        (sample samples "store_cement_duration_us_sum"
        /. 1e3 /. sample samples "store_cement_duration_us_count");
      let dm, recover_s = crash_and_resume st dm in
      Report.note r "recover: %.4f s from SIGKILL to %d sessions re-attached" recover_s
        (Array.length st.sessions);
      burst st dm ~frames:8;
      dm
    end
  in
  stop dm;
  rm_rf store;
  { st; setups = (ready_at -. t0) :: extra; dps; chunk_dps; lat; lag; rss }

(* Every trial sent the same frames, so its decisions must equal the
   reference trial's over their common slots; a frame with any differing
   decision counts as failed. *)
let same_decisions ~reference st =
  let wrong = ref 0 in
  Array.iteri
    (fun i s ->
      let r = reference.sessions.(i) in
      let slots = min s.got r.got in
      let t = ref 0 in
      while !t < slots do
        let len = min (spf st) (slots - !t) in
        let differs = ref false in
        for k = !t * st.d to ((!t + len) * st.d) - 1 do
          if s.dec.(k) <> r.dec.(k) then differs := true
        done;
        if !differs then incr wrong;
        t := !t + len
      done)
    st.sessions;
  if !wrong > 0 then
    fail ~n:!wrong st "%d frames of a trial differ from the verified trial's" !wrong

(* [trials] trials of [seconds / trials] each, so a run samples the host
   at several moments: the closed-loop rate is the mean over the trials;
   set-up time, memory and the (ungated) latency p50 are medians.  The
   last trial is checked against the oracle, and every other one against
   the last. *)
let run ~w ~seed ~seconds ~work r =
  if pin (Unix.getpid ()) ~cpu:0 then Report.note r "pinned: driver on CPU 0, daemon on CPU 1";
  let frames = max 1 (Gen.closed_frames w ~seconds / trials) in
  let per = seconds /. 2. /. float_of_int trials in
  let ts =
    List.init trials (fun k ->
        trial ~w ~seed ~work ~frames ~seconds:per ~last:(k = trials - 1) r)
  in
  let last = (List.nth ts (trials - 1)).st in
  verify last;
  List.iter (fun t -> if t.st != last then same_decisions ~reference:last t.st) ts;
  let over f = Arith.median (Array.of_list (List.map f ts)) in
  let mean f = List.fold_left (fun a t -> a +. f t) 0. ts /. float_of_int trials in
  let lat = Array.concat (List.map (fun t -> t.lat) ts) in
  let lag = Array.concat (List.map (fun t -> t.lag) ts) in
  let setups = Array.of_list (List.concat_map (fun t -> t.setups) ts) in
  let per_trial f = String.concat " " (List.map (fun t -> Printf.sprintf "%.0f" (f t)) ts) in
  Report.note r "closed loop per trial (1/s): %s" (per_trial (fun t -> t.dps));
  Report.note r "closed loop, median of ten chunks (ungated): %s" (per_trial (fun t -> t.chunk_dps));
  Report.describe r "set-up (s)" setups ~unit:"s";
  Report.describe r "open-loop frame latency (ms)" (Array.map (( *. ) 1e3) lat) ~unit:"ms";
  Report.describe r "open-loop send lag (ms)" (Array.map (( *. ) 1e3) lag) ~unit:"ms";
  if not (Arith.reportable ~n:(Array.length lat) 0.99) then
    fail last "only %d open-loop frames: p99 needs 1000" (Array.length lat);
  let _, p99 = Arith.windowed_quantiles lat ~min_window:1000 ~max_windows:10 in
  Report.note r "open-loop latency (ungated; see README): p50 %.4f ms (median over trials), p99 %.4f ms (median over windows)"
    (1e3 *. over (fun t -> Arith.median t.lat)) (1e3 *. p99);
  Report.metric r "decisions_per_s" "1/s" (mean (fun t -> t.dps));
  Report.metric r "setup_s" "s" (Arith.median setups);
  Report.metric r "peak_rss_mb" "MB" (over (fun t -> t.rss))

module S = Util.Sexp
module P = Protocol

let ( let* ) = Result.bind

let c_accepts = Obs.Counter.make "server.accepts"
let c_requests = Obs.Counter.make "server.requests"
let c_decisions = Obs.Counter.make "server.decisions"
let c_batches = Obs.Counter.make "server.batches"
let c_batch_size = Obs.Counter.make "server.batch_size"
let c_faults = Obs.Counter.make "server.faults"
let c_disconnects = Obs.Counter.make "server.disconnects"
let c_sessions = Obs.Counter.make "server.sessions_created"

exception Store_failed of string

type config = {
  unix_path : string option;
  tcp_port : int option;
  pool : Util.Pool.t option;
  max_frame_bytes : int;
  max_sessions : int;
  crash_after_slots : int option;
  metrics_port : int option;
  audit_every : int option;
  audit_sample : int;
  audit_sync : bool;
  log_dir : string option;
  cement_every : int;
}

let default_config =
  { unix_path = None;
    tcp_port = None;
    pool = None;
    max_frame_bytes = Codec.default_max_frame_bytes;
    max_sessions = 1024;
    crash_after_slots = None;
    metrics_port = None;
    audit_every = None;
    audit_sample = 4;
    audit_sync = false;
    log_dir = None;
    cement_every = 4096 }

type conn = {
  fd : Unix.file_descr;
  dec : Codec.decoder;
  mutable hello_done : bool;
  out : Buffer.t;
  mutable dead : bool;  (* closed after this round's replies are flushed *)
}

(* State of the incremental store ([--log-dir]): the live tail writer
   plus daemon-owned telemetry. *)
type store_state = {
  store_dir : string;
  writer : Store.Log.writer;
  append_h : Obs.Histogram.t;          (* per-round flush+fsync, us *)
  cement_h : Obs.Histogram.t;          (* cement duration, us *)
  mutable chunks : int;                (* cemented chunks on disk *)
  mutable last_append_at : float;      (* wall clock of last fsync; nan before *)
  recover_s : float;                   (* startup recovery duration, s *)
}

type t = {
  cfg : config;
  sessions : (string, Session.t) Hashtbl.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mutable listeners : Unix.file_descr list;
  stop : bool Atomic.t;
  mutable stepped : int;   (* freshly stepped slots, across all sessions *)
  (* Bounded latency telemetry: O(buckets) forever, where the old
     design kept a per-request sample array.  Daemon-owned (not in the
     process-wide registry) so concurrent daemons in one test process
     stay isolated. *)
  lat_h : Obs.Histogram.t;     (* per-request service latency, us *)
  batch_h : Obs.Histogram.t;   (* step-phase duration per round, us *)
  mutable audit : Audit.t option;
  mutable metrics_listener : Unix.file_descr option;
  mutable metrics_conns : Unix.file_descr list;
  start_time : float;
  store : store_state option;  (* [None]: no [log_dir], no durable state *)
}

let session_count t = Hashtbl.length t.sessions
let stepped_slots t = t.stepped
let request_stop t = Atomic.set t.stop true
let audit t = t.audit

let record_latency t t0 = Obs.Histogram.observe t.lat_h (Obs.Span.now_us () -. t0)

let stats t =
  let q p =
    if Obs.Histogram.count t.lat_h = 0 then 0.
    else Obs.Histogram.quantile t.lat_h p
  in
  { P.accepts = Obs.Counter.value c_accepts;
    sessions = Hashtbl.length t.sessions;
    requests = Obs.Counter.value c_requests;
    decisions = Obs.Counter.value c_decisions;
    batches = Obs.Counter.value c_batches;
    p50_us = q 0.5;
    p99_us = q 0.99 }

(* The full telemetry scrape: process-wide counter/gauge/histogram
   registries (faultinj sites, streaming buffer grows, span.dropped,
   ...) plus the daemon's own series and, when auditing, the shadow
   oracle's.  One body serves both the [metrics] protocol request and
   the [--metrics-port] HTTP listener. *)
let metrics_body t =
  let counters =
    Obs.Counter.snapshot ()
    @ (match t.audit with Some a -> Audit.counters a | None -> [])
  in
  let gc = Gc.quick_stat () in
  let gauges =
    Obs.Gauge.snapshot ()
    @ [ ("server.sessions", [], float_of_int (Hashtbl.length t.sessions));
        ("server.connections", [], float_of_int (Hashtbl.length t.conns));
        ( "server.pool_domains",
          [],
          match t.cfg.pool with
          | Some p -> float_of_int (Util.Pool.size p)
          | None -> 0. );
        ("server.uptime_s", [], Unix.gettimeofday () -. t.start_time);
        (* the major heap, now and at its largest, in words *)
        ("gc.heap_words", [], float_of_int gc.Gc.heap_words);
        ("gc.top_heap_words", [], float_of_int gc.Gc.top_heap_words) ]
    @ (match t.store with
      | None -> []
      | Some st ->
          (* checkpoint-age means "how stale is my durable state": the
             age of the last fsync'd round *)
          (if Float.is_nan st.last_append_at then []
           else
             [ ("server.checkpoint_age_s", [], Unix.gettimeofday () -. st.last_append_at) ])
          @ [ ( "store.tail_records",
              [],
                float_of_int (Store.Log.records_on_disk st.writer) );
              ("store.tail_bytes", [], float_of_int (Store.Log.tail_bytes st.writer));
              ("store.cemented_chunks", [], float_of_int st.chunks);
              ("store.recovery_s", [], st.recover_s) ])
    @ (match t.audit with Some a -> Audit.gauges a | None -> [])
  in
  (* Distribution of slots fed across live sessions, rebuilt per scrape
     (cheap: one pass over the table into a fixed bucket array). *)
  let fed_h = Obs.Histogram.create ~lo:1. ~hi:1e7 () in
  Hashtbl.iter
    (fun _ s -> Obs.Histogram.observe fed_h (float_of_int (Session.fed s)))
    t.sessions;
  let histograms =
    Obs.Histogram.snapshot ()
    @ [ ("server.request_latency_us", Obs.Histogram.export t.lat_h);
        ("server.batch_duration_us", Obs.Histogram.export t.batch_h);
        ("server.session_fed_slots", Obs.Histogram.export fed_h) ]
    @ (match t.store with
      | None -> []
      | Some st ->
          [ ("store.append_latency_us", Obs.Histogram.export st.append_h);
            ("store.cement_duration_us", Obs.Histogram.export st.cement_h) ])
    @ (match t.audit with Some a -> Audit.histograms a | None -> [])
  in
  Obs.Metrics_export.to_prometheus ~counters ~gauges ~histograms ()

(* --- the incremental store (--log-dir) ------------------------------ *)

let table_payload sessions =
  let all = Hashtbl.fold (fun _ s acc -> s :: acc) sessions [] in
  let sorted =
    List.sort (fun a b -> compare (Session.id a) (Session.id b)) all
  in
  S.List (S.Atom "sessions" :: List.map Session.save sorted)

let store_log t r =
  match t.store with None -> () | Some st -> Store.Log.append st.writer r

(* Fold the fsync'd tail into the next cemented chunk with the current
   table as the new base, then truncate the tail.  A failed cement
   (injected [store.cement] fault or a real error) leaves the tail
   intact, so nothing durable is lost and the cement simply retries at
   the next threshold crossing.  An empty tail only rewrites the base
   (no empty chunks).  A failed tail truncate is crash-only: the tail
   still overlaps the new base, which recovery replays idempotently. *)
let store_cement_now t st =
  match Store.Log.read ~path:(Store.Cemented.tail_path ~dir:st.store_dir) with
  | Error m -> prerr_endline ("daemon: store: cement deferred: " ^ m)
  | Ok scan -> (
      let base = table_payload t.sessions in
      let t0 = Obs.Span.now_us () in
      match
        if scan.Store.Log.records = [] then
          Result.map (fun () -> None) (Store.Cemented.write_base ~dir:st.store_dir base)
        else
          Result.map Option.some
            (Store.Cemented.cement ~dir:st.store_dir ~base
               ~records:scan.Store.Log.records ())
      with
      | exception Util.Faultinj.Injected { site; _ } ->
          Obs.Counter.incr c_faults;
          Util.Faultinj.recovered site
      | Error m -> prerr_endline ("daemon: store: cement deferred: " ^ m)
      | Ok cemented -> (
          Obs.Histogram.observe st.cement_h (Obs.Span.now_us () -. t0);
          (match cemented with Some _ -> st.chunks <- st.chunks + 1 | None -> ());
          st.last_append_at <- Unix.gettimeofday ();
          match Store.Log.reset st.writer with
          | Ok () -> ()
          | Error m -> raise (Store_failed ("tail reset: " ^ m))))

(* End-of-round durability: one write + fsync for everything this round
   appended — O(records this round), not O(sessions) — then cement once
   the tail passes [cement_every] records.  A failed flush is
   crash-only: it raises before any of the round's replies is written,
   so no client ever sees a decision the log does not hold. *)
let store_round_end t =
  match t.store with
  | None -> ()
  | Some st ->
      if Store.Log.pending st.writer > 0 then begin
        let t0 = Obs.Span.now_us () in
        match Store.Log.flush st.writer with
        | exception Util.Faultinj.Injected { site; _ } ->
            raise (Store_failed ("injected fault at " ^ site))
        | Error m -> raise (Store_failed ("append: " ^ m))
        | Ok () ->
            Obs.Histogram.observe st.append_h (Obs.Span.now_us () -. t0);
            st.last_append_at <- Unix.gettimeofday ()
      end;
      if Store.Log.records_on_disk st.writer >= t.cfg.cement_every then
        store_cement_now t st

(* Rebuild the session table from the store: the base snapshot (the
   table at the last cement) plus the tail replayed on top.  Replay is
   idempotent — a tail that overlaps the base (crash between cement and
   tail truncate) re-answers old slots from each session's power events
   instead of stepping them again — so every crash point lands on the
   same state. *)
let restore_from_store sessions (r : Store.Cemented.recovery) =
  let* () =
    match r.Store.Cemented.base with
    | None -> Ok ()
    | Some (S.List (S.Atom "sessions" :: rows)) ->
        let rec go = function
          | [] -> Ok ()
          | row :: rest -> (
              match Session.of_sexp row with
              | Ok s ->
                  Hashtbl.replace sessions (Session.id s) s;
                  go rest
              | Error m -> Error ("daemon: store base: " ^ m))
        in
        go rows
    | Some (S.Atom _ | S.List _) -> Error "daemon: store base: unexpected payload"
  in
  let apply = function
    | Store.Log.Create { id; scenario; max_horizon; alg; alg_used = _ } ->
        if Hashtbl.mem sessions id then Ok ()
        else (
          match Session.create ~id { Session.scenario; max_horizon; alg } with
          | Ok s ->
              Hashtbl.replace sessions id s;
              Ok ()
          | Error (_, m) -> Error (Printf.sprintf "daemon: store: create %s: %s" id m))
    | Store.Log.Feed { id; seq; loads } -> (
        match Hashtbl.find_opt sessions id with
        | None -> Error (Printf.sprintf "daemon: store: feed for unknown session %s" id)
        | Some s -> (
            match Session.feed s ~seq loads with
            | Ok _ -> Ok ()
            | Error (_, m) -> Error (Printf.sprintf "daemon: store: feed %s: %s" id m)))
    | Store.Log.Close { id } ->
        Hashtbl.remove sessions id;
        Ok ()
  in
  let rec go = function
    | [] -> Ok ()
    | rec_ :: rest -> (
        match apply rec_ with Ok () -> go rest | Error _ as e -> e)
  in
  go r.Store.Cemented.tail.Store.Log.records

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

(* Bring the store up at daemon start.  [resume] rebuilds [sessions]
   from base + tail (the writer then truncates any torn tail); a
   recovery failure fails the start, as there is no second copy to fall
   back to.  A fresh start opens a new epoch: the empty table becomes
   the base and the stale tail is truncated, while cemented chunks stay
   on disk as history. *)
let store_open sessions ~dir ~resume =
  let* () =
    match mkdir_p dir with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "daemon: store: mkdir %s: %s" dir (Unix.error_message e))
  in
  let t0 = Unix.gettimeofday () in
  let* () =
    if not resume then Ok ()
    else
      match Store.Cemented.recover ~dir with
      | exception Util.Faultinj.Injected { site; _ } ->
          Error ("daemon: store: recovery failed: injected fault at " ^ site)
      | Error m -> Error ("daemon: store: recovery failed: " ^ m)
      | Ok r -> restore_from_store sessions r
  in
  let* writer, _scan =
    Result.map_error
      (fun m -> "daemon: store: " ^ m)
      (Store.Log.open_writer ~path:(Store.Cemented.tail_path ~dir) ())
  in
  let* chunks = Result.map List.length (Store.Cemented.read_index ~dir) in
  let* () =
    if resume then Ok ()
    else
      let* () = Store.Cemented.write_base ~dir (table_payload sessions) in
      Store.Log.reset writer
  in
  Ok
    { store_dir = dir;
      writer;
      append_h = Obs.Histogram.create ();
      cement_h = Obs.Histogram.create ();
      chunks;
      last_append_at = Float.nan;
      recover_s = Unix.gettimeofday () -. t0 }

(* --- request execution --------------------------------------------- *)

let err ?fed code msg = P.Error { code; msg; fed }

(* Control-plane requests, executed synchronously in arrival order.
   [Feed] never reaches this function — it goes through the batch. *)
let exec_control t (req : P.request) : P.response =
  match req with
  | P.Hello { version } ->
      if version = P.version then P.Welcome { version = P.version }
      else
        err P.Unsupported_version
          (Printf.sprintf "server speaks version %d" P.version)
  | P.Create_session { id; scenario; max_horizon; alg } ->
      if not (P.valid_id id) then err P.Bad_request "invalid session id"
      else (
        match Hashtbl.find_opt t.sessions id with
        | Some s ->
            let spec = Session.spec s in
            if
              spec.Session.scenario = scenario
              && spec.Session.max_horizon = max_horizon
              && spec.Session.alg = alg
            then
              P.Session
                { id; alg = Session.alg s; types = Session.num_types s;
                  fed = Session.fed s }
            else err P.Session_exists "session exists with a different spec"
        | None ->
            if Hashtbl.length t.sessions >= t.cfg.max_sessions then
              err P.Too_many_sessions
                (Printf.sprintf "session table is full (%d)" t.cfg.max_sessions)
            else (
              match Session.create ~id { scenario; max_horizon; alg } with
              | Error (code, msg) -> err code msg
              | Ok s ->
                  Hashtbl.replace t.sessions id s;
                  Obs.Counter.incr c_sessions;
                  store_log t
                    (Store.Log.Create
                       { id; scenario; max_horizon; alg;
                         alg_used = Session.alg s });
                  P.Session
                    { id; alg = Session.alg s; types = Session.num_types s;
                      fed = 0 }))
  | P.Stats -> P.Stats_reply (stats t)
  | P.Metrics -> P.Metrics_reply { body = metrics_body t }
  | P.Query_snapshot { id } -> (
      match Hashtbl.find_opt t.sessions id with
      | Some s -> P.Snapshot_state { id; state = Session.save s }
      | None -> err P.Unknown_session ("no session " ^ id))
  | P.Close { id } ->
      if Hashtbl.mem t.sessions id then begin
        Hashtbl.remove t.sessions id;
        store_log t (Store.Log.Close { id });
        P.Closed { id }
      end
      else err P.Unknown_session ("no session " ^ id)
  | P.Shutdown ->
      Atomic.set t.stop true;
      P.Bye
  | P.Feed _ -> err P.Internal "feed escaped the batch path"

type item = {
  conn : conn option;  (* [None] for the in-process [handle] path *)
  req : (P.request, string) result;
  mutable reply : P.response option;
  t0 : float;
}

(* One scheduling round: early control ops in arrival order, then all
   feeds batched per session (fanned out across the pool when there is
   more than one stepping session), then the late control ops. *)
let process_round t items =
  (* early: hello / create-session / stats, plus every malformed or
     out-of-gate request *)
  List.iter
    (fun it ->
      Obs.Counter.incr c_requests;
      match it.req with
      | Error msg -> it.reply <- Some (err P.Bad_request msg)
      | Ok req ->
          let gated =
            match it.conn with
            | None -> false
            | Some c -> (
                (not c.hello_done)
                && match req with P.Hello _ -> false | _ -> true)
          in
          if gated then it.reply <- Some (err P.Bad_request "hello required")
          else (
            match req with
            | P.Hello _ ->
                let r = exec_control t req in
                (match (r, it.conn) with
                | P.Welcome _, Some c -> c.hello_done <- true
                | _ -> ());
                it.reply <- Some r
            | P.Create_session _ | P.Stats | P.Metrics ->
                it.reply <- Some (exec_control t req)
            | P.Feed _ | P.Query_snapshot _ | P.Close _ | P.Shutdown -> ()))
    items;
  (* step: group the round's feeds by session, preserving arrival order
     within each session *)
  let order = ref [] in
  let groups : (string, (item * int * float array) Queue.t) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun it ->
      match (it.reply, it.req) with
      | None, Ok (P.Feed { id; seq; loads }) -> (
          match Hashtbl.find_opt t.sessions id with
          | None -> it.reply <- Some (err P.Unknown_session ("no session " ^ id))
          | Some _ ->
              let q =
                match Hashtbl.find_opt groups id with
                | Some q -> q
                | None ->
                    let q = Queue.create () in
                    Hashtbl.replace groups id q;
                    order := id :: !order;
                    q
              in
              Queue.add (it, seq, loads) q)
      | _ -> ())
    items;
  let ids = Array.of_list (List.rev !order) in
  let ntasks = Array.length ids in
  if ntasks > 0 then begin
    Obs.Counter.incr c_batches;
    Obs.Counter.add c_batch_size ntasks;
    (* Capture sessions and queues up front: worker domains must not
       touch the hash tables, only their own session's state. *)
    let sess = Array.map (fun id -> Hashtbl.find t.sessions id) ids in
    let qs = Array.map (fun id -> Hashtbl.find groups id) ids in
    let before = Array.map Session.fed sess in
    let task k =
      let s = sess.(k) and q = qs.(k) in
      match Util.Faultinj.check "server.step" with
      | Some _ ->
          Obs.Counter.incr c_faults;
          Util.Faultinj.recovered "server.step";
          Queue.iter
            (fun ((it : item), _, _) ->
              it.reply <-
                Some
                  (err ~fed:(Session.fed s) P.Injected
                     "injected fault at server.step"))
            q
      | None ->
          Queue.iter
            (fun ((it : item), seq, loads) ->
              if it.reply = None then
                match Session.feed s ~seq loads with
                | Ok configs ->
                    it.reply <- Some (P.Decisions { id = Session.id s; seq; configs })
                | Error (code, msg) ->
                    it.reply <- Some (err ~fed:(Session.fed s) code msg))
            q
    in
    let safe k =
      let s = sess.(k) and q = qs.(k) in
      let fail code msg =
        Queue.iter
          (fun ((it : item), _, _) ->
            if it.reply = None then
              it.reply <- Some (err ~fed:(Session.fed s) code msg))
          q
      in
      try task k with
      | Util.Faultinj.Injected { site; _ } ->
          Obs.Counter.incr c_faults;
          Util.Faultinj.recovered site;
          fail P.Injected ("injected fault at " ^ site)
      | exn -> fail P.Internal (Printexc.to_string exn)
    in
    let batch_t0 = Obs.Span.now_us () in
    Obs.Span.with_ ~args:[ ("sessions", string_of_int ntasks) ] "server.batch"
      (fun () ->
        match t.cfg.pool with
        | Some pool when ntasks >= 2 -> Util.Pool.run pool ~n:ntasks safe
        | Some _ | None ->
            for k = 0 to ntasks - 1 do
              safe k
            done);
    Obs.Histogram.observe t.batch_h (Obs.Span.now_us () -. batch_t0);
    let fresh = ref 0 in
    Array.iteri (fun k s -> fresh := !fresh + Session.fed s - before.(k)) sess;
    Obs.Counter.add c_decisions !fresh;
    t.stepped <- t.stepped + !fresh;
    (* One feed record per session per round, carrying only the slots
       freshly stepped this round — the O(delta) append. *)
    if t.store <> None then
      Array.iteri
        (fun k s ->
          if Session.fed s > before.(k) then
            store_log t
              (Store.Log.Feed
                 { id = Session.id s;
                   seq = before.(k);
                   loads = Session.loads_from s ~from_:before.(k) }))
        sess
  end;
  (* late: snapshot / close / shutdown *)
  List.iter
    (fun it ->
      match (it.reply, it.req) with
      | None, Ok ((P.Query_snapshot _ | P.Close _ | P.Shutdown) as req) ->
          it.reply <- Some (exec_control t req)
      | None, Ok _ -> it.reply <- Some (err P.Internal "unhandled request")
      | _ -> ())
    items;
  store_round_end t;
  match t.audit with
  | None -> ()
  | Some a ->
      Audit.maybe_run a
        ~sessions:(fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [])

let handle t req =
  let it = { conn = None; req = Ok req; reply = None; t0 = 0. } in
  process_round t [ it ];
  match it.reply with Some r -> r | None -> err P.Internal "no reply"

(* --- sockets -------------------------------------------------------- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let bind_unix path =
  if Sys.file_exists path then Sys.remove path;
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind fd (ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let bind_tcp port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let create ?(resume = false) cfg =
  if cfg.unix_path = None && cfg.tcp_port = None then
    Error "daemon: configure at least one of unix_path / tcp_port"
  else if cfg.cement_every < 1 then Error "daemon: cement_every must be >= 1"
  else if resume && cfg.log_dir = None then
    Error "daemon: resume requires a log_dir to recover from"
  else begin
    let sessions = Hashtbl.create 64 in
    let* store =
      match cfg.log_dir with
      | None -> Ok None
      | Some dir -> Result.map Option.some (store_open sessions ~dir ~resume)
    in
    let t =
      { cfg;
        sessions;
        conns = Hashtbl.create 16;
        listeners = [];
        stop = Atomic.make false;
        stepped = 0;
        lat_h = Obs.Histogram.create ();
        batch_h = Obs.Histogram.create ();
        audit = None;
        metrics_listener = None;
        metrics_conns = [];
        start_time = Unix.gettimeofday ();
        store }
    in
    (match cfg.audit_every with
    | Some every ->
        t.audit <-
          Some
            (Audit.create ~sync:cfg.audit_sync ~every ~sample:cfg.audit_sample
               ~stepped_now:(fun () -> t.stepped)
               ())
    | None -> ());
    match
      (let ls = ref [] in
       (match cfg.unix_path with
       | Some p -> ls := bind_unix p :: !ls
       | None -> ());
       (match cfg.tcp_port with
       | Some p -> ls := bind_tcp p :: !ls
       | None -> ());
       (match cfg.metrics_port with
       | Some p -> t.metrics_listener <- Some (bind_tcp p)
       | None -> ());
       Ok !ls
       : (_, string) result)
    with
    | exception Unix.Unix_error (e, fn, arg) ->
        Error (Printf.sprintf "daemon: %s %s: %s" fn arg (Unix.error_message e))
    | exception Sys_error m -> Error ("daemon: " ^ m)
    | Error _ as e -> e
    | Ok ls ->
        t.listeners <- ls;
        Ok t
  end

let accept_on t lfd =
  match Unix.accept ~cloexec:true lfd with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | fd, _ -> (
      Obs.Counter.incr c_accepts;
      match Util.Faultinj.check "server.accept" with
      | Some _ ->
          Obs.Counter.incr c_faults;
          close_quietly fd;
          Util.Faultinj.recovered "server.accept"
      | None ->
          (* no-op (EOPNOTSUPP) on the Unix-domain listener *)
          (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
          Hashtbl.replace t.conns fd
            { fd;
              dec = Codec.decoder ~max_frame_bytes:t.cfg.max_frame_bytes ();
              hello_done = false;
              out = Buffer.create 256;
              dead = false })

(* Drain one readable connection into round items (newest first — the
   caller reverses the accumulated list). *)
let drain_conn conn buf acc =
  match Util.Faultinj.check "server.read" with
  | Some _ ->
      Obs.Counter.incr c_faults;
      Util.Faultinj.recovered "server.read";
      conn.dead <- true;
      acc
  | None -> (
      match Unix.read conn.fd buf 0 (Bytes.length buf) with
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> acc
      | exception Unix.Unix_error _ ->
          conn.dead <- true;
          acc
      | 0 ->
          conn.dead <- true;
          acc
      | n ->
          Codec.feed conn.dec buf n;
          let rec pull acc =
            match Codec.next conn.dec with
            | Ok None -> acc
            | Ok (Some sexp) ->
                pull
                  ({ conn = Some conn;
                     req = P.request_of_sexp sexp;
                     reply = None;
                     t0 = Obs.Span.now_us () }
                  :: acc)
            | Error msg ->
                (* poisoned framing: answer the error, then hang up *)
                conn.dead <- true;
                { conn = Some conn; req = Error msg; reply = None;
                  t0 = Obs.Span.now_us () }
                :: acc
          in
          pull acc)

let flush_conn conn =
  let s = Buffer.contents conn.out in
  Buffer.clear conn.out;
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring conn.fd s off (len - off) with
      | exception Unix.Unix_error (EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> conn.dead <- true
      | n -> go (off + n)
  in
  if len > 0 then go 0

let drop_conn t conn =
  Hashtbl.remove t.conns conn.fd;
  close_quietly conn.fd;
  Obs.Counter.incr c_disconnects

let export_latency t =
  if Obs.Histogram.count t.lat_h > 0 then begin
    let set name q =
      let c = Obs.Counter.make name in
      Obs.Counter.reset c;
      Obs.Counter.add c (int_of_float (Obs.Histogram.quantile t.lat_h q))
    in
    set "server.latency_p50_us" 0.5;
    set "server.latency_p99_us" 0.99
  end

(* --- the /metrics HTTP listener ------------------------------------ *)

let accept_metrics t lfd =
  match Unix.accept ~cloexec:true lfd with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | fd, _ -> t.metrics_conns <- fd :: t.metrics_conns

(* One-shot HTTP/1.0 exchange: read whatever request arrived (a scraper
   on loopback sends it in one write), answer with the scrape body,
   close.  No keep-alive, no routing — any path gets the metrics. *)
let serve_metrics_conn t fd =
  let buf = Bytes.create 4096 in
  (try ignore (Unix.read fd buf 0 (Bytes.length buf))
   with Unix.Unix_error _ -> ());
  let body = metrics_body t in
  let resp =
    Printf.sprintf
      "HTTP/1.0 200 OK\r\n\
       Content-Type: text/plain; version=0.0.4\r\n\
       Content-Length: %d\r\n\
       Connection: close\r\n\r\n%s"
      (String.length body) body
  in
  let len = String.length resp in
  let rec go off =
    if off < len then
      match Unix.write_substring fd resp off (len - off) with
      | exception Unix.Unix_error (EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> ()
      | n -> go (off + n)
  in
  go 0;
  t.metrics_conns <- List.filter (fun fd' -> fd' != fd) t.metrics_conns;
  close_quietly fd

(* Graceful stop: cement what the log holds, so the next start
   recovers from the base alone; stop the audit worker; close every
   socket. *)
let close t =
  (match t.store with
  | Some st ->
      store_cement_now t st;
      Store.Log.close_writer st.writer
  | None -> ());
  export_latency t;
  (match t.audit with Some a -> Audit.stop a | None -> ());
  let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter (fun c -> drop_conn t c) conns;
  List.iter close_quietly t.listeners;
  t.listeners <- [];
  List.iter close_quietly t.metrics_conns;
  t.metrics_conns <- [];
  (match t.metrics_listener with
  | Some lfd ->
      close_quietly lfd;
      t.metrics_listener <- None
  | None -> ());
  match t.cfg.unix_path with
  | Some p -> ( try Sys.remove p with Sys_error _ -> ())
  | None -> ()

let run t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let buf = Bytes.create 65536 in
  while not (Atomic.get t.stop) do
    let conn_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) t.conns [] in
    let metric_fds =
      match t.metrics_listener with
      | Some lfd -> lfd :: t.metrics_conns
      | None -> []
    in
    match Unix.select (t.listeners @ conn_fds @ metric_fds) [] [] 0.25 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, _, _ ->
        let items = ref [] in
        List.iter
          (fun fd ->
            if List.memq fd t.listeners then accept_on t fd
            else if t.metrics_listener = Some fd then accept_metrics t fd
            else if List.memq fd t.metrics_conns then serve_metrics_conn t fd
            else
              match Hashtbl.find_opt t.conns fd with
              | Some conn -> items := drain_conn conn buf !items
              | None -> ())
          readable;
        let items = List.rev !items in
        if items <> [] then begin
          process_round t items;
          List.iter
            (fun it ->
              match it.conn with
              | None -> ()
              | Some c ->
                  let reply =
                    match it.reply with
                    | Some r -> r
                    | None -> err P.Internal "no reply"
                  in
                  Buffer.add_string c.out (Codec.encode (P.response_to_sexp reply));
                  record_latency t it.t0)
            items;
          let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
          List.iter flush_conn conns;
          List.iter (fun c -> if c.dead then drop_conn t c) conns
        end;
        match t.cfg.crash_after_slots with
        | Some n when t.stepped >= n ->
            prerr_endline "daemon: crash-after-slots reached; dying without a final cement";
            exit 3
        | _ -> ()
  done;
  close t

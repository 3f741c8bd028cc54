(* Durability store tests: append-only log round-trips bit-identically,
   torn tails truncate to the clean prefix at every byte offset, corrupt
   cemented chunks are rejected, recovering a daemon from the log yields
   exactly the abandoned daemon's session table, and store failures are
   crash-only: a failed append raises before any reply, a failed
   recovery fails the start.

   Random values are generated from an integer seed (the [test_props.ml]
   convention) so qcheck shrinking walks over seeds and every failure
   replays. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

module Log = Store.Log
module Cemented = Store.Cemented
module P = Server.Protocol
module Daemon = Server.Daemon

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let mk_prop ?(count = 100) ~name prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count seed_gen prop)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun x -> rm_rf (Filename.concat path x)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let dir = Filename.temp_file "rs-store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- generated records ---------------------------------------------- *)

let gen_id rng =
  let alphabet = "abcXYZ019_.:-" in
  let n = 1 + Util.Prng.int rng 16 in
  String.init n (fun _ -> alphabet.[Util.Prng.int rng (String.length alphabet)])

(* arbitrary bytes: spaces, parens, newlines, high bit — the percent
   quoting must keep every payload a single-line atom *)
let gen_string rng =
  let n = Util.Prng.int rng 12 in
  String.init n (fun _ -> Char.chr (Util.Prng.int rng 256))

let gen_float rng =
  match Util.Prng.int rng 6 with
  | 0 -> 0.
  | 1 -> -0.
  | 2 -> 1e-300
  | 3 -> Float.pi *. 1e10
  | 4 -> Util.Prng.float rng 1e6
  | _ -> -.Util.Prng.float rng 1.

let gen_floats rng =
  Array.init (Util.Prng.int rng 8) (fun _ -> gen_float rng)

let gen_record rng : Log.record =
  match Util.Prng.int rng 4 with
  | 0 ->
      Log.Create
        { id = gen_id rng;
          scenario = gen_string rng;
          max_horizon = (if Util.Prng.bool rng then Some (Util.Prng.int rng 500) else None);
          alg = (if Util.Prng.bool rng then Some (gen_string rng) else None);
          alg_used = gen_string rng }
  | 1 | 2 ->
      Log.Feed { id = gen_id rng; seq = Util.Prng.int rng 1000; loads = gen_floats rng }
  | _ -> Log.Close { id = gen_id rng }

let gen_records ?(min = 0) rng =
  List.init (min + Util.Prng.int rng 12) (fun _ -> gen_record rng)

(* bit-identity witness: two record lists are equal iff their encoded
   frames are byte-equal (floats compare through their %h image) *)
let frames records = String.concat "" (List.map Log.encode records)

(* --- append -> recover round-trip ----------------------------------- *)

let prop_log_roundtrip seed =
  let rng = Util.Prng.create seed in
  let records = gen_records rng in
  (* pure scan *)
  let scan = Log.scan_string (frames records) in
  checks "scan round-trip" (frames records) (frames scan.Log.records);
  checki "no torn bytes" 0 scan.Log.torn_bytes;
  (* through the writer and a real file, across several open/append/
     flush cycles *)
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "tail.log" in
      let cycles = 1 + Util.Prng.int rng 3 in
      let written = ref [] in
      for _ = 1 to cycles do
        let w, scan0 =
          match Log.open_writer ~sync:false ~path () with
          | Ok x -> x
          | Error m -> Alcotest.fail m
        in
        checks "reopen sees prior records" (frames !written)
          (frames scan0.Log.records);
        let batch = gen_records rng in
        List.iter (Log.append w) batch;
        (match Log.flush w with Ok () -> () | Error m -> Alcotest.fail m);
        written := !written @ batch;
        Log.close_writer w
      done;
      let final =
        match Log.read ~path with Ok s -> s | Error m -> Alcotest.fail m
      in
      checks "file round-trip" (frames !written) (frames final.Log.records));
  true

(* --- torn-write truncation ------------------------------------------ *)

(* Cut the log at every byte offset inside the final record: the scan
   must return exactly the preceding records and report the tail as
   torn, and [open_writer] must truncate the file back to that clean
   prefix. *)
let prop_torn_tail_truncates seed =
  let rng = Util.Prng.create seed in
  let records = gen_records ~min:1 rng in
  let n = List.length records in
  let keep = frames (List.filteri (fun i _ -> i < n - 1) records) in
  let clean = String.length keep in
  let full = frames records in
  for off = clean to String.length full - 1 do
    let scan = Log.scan_string (String.sub full 0 off) in
    checki (Printf.sprintf "records at cut %d" off) (n - 1)
      (List.length scan.Log.records);
    checki (Printf.sprintf "clean bytes at cut %d" off) clean scan.Log.clean_bytes;
    checki (Printf.sprintf "torn bytes at cut %d" off) (off - clean)
      scan.Log.torn_bytes
  done;
  (* the writer truncates a torn file in place *)
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "tail.log" in
      let off = clean + Util.Prng.int rng (String.length full - clean) in
      let oc = open_out_bin path in
      output_string oc (String.sub full 0 off);
      close_out oc;
      let w, scan =
        match Log.open_writer ~sync:false ~path () with
        | Ok x -> x
        | Error m -> Alcotest.fail m
      in
      checki "truncated scan records" (n - 1) (List.length scan.Log.records);
      Log.close_writer w;
      checki "file truncated to clean prefix" clean
        (let st = Unix.stat path in
         st.Unix.st_size));
  true

(* --- cemented chunk integrity --------------------------------------- *)

let test_chunk_crc_rejected () =
  with_tmpdir (fun dir ->
      let rng = Util.Prng.create 42 in
      let records = gen_records ~min:4 rng in
      (match Cemented.cement ~dir ~records () with
      | Ok 0 -> ()
      | Ok n -> Alcotest.fail (Printf.sprintf "first chunk numbered %d" n)
      | Error m -> Alcotest.fail m);
      (match Cemented.read_chunks ~dir with
      | Ok rs -> checks "chunk round-trip" (frames records) (frames rs)
      | Error m -> Alcotest.fail m);
      (* flip one payload byte mid-file: the container checksum must
         reject the chunk *)
      let path = Cemented.chunk_path ~dir 0 in
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      let pos = len / 2 in
      let flipped =
        String.mapi
          (fun i c -> if i = pos then Char.chr (Char.code c lxor 1) else c)
          body
      in
      let oc = open_out_bin path in
      output_string oc flipped;
      close_out oc;
      (match Cemented.read_chunks ~dir with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "corrupt chunk accepted");
      (match Cemented.read_all ~dir with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "corrupt chunk accepted by read_all");
      (* daemon recovery reads only base + tail, so it is unaffected *)
      match Cemented.recover ~dir with
      | Ok r ->
          checki "recovery skips chunks" 1 r.Cemented.chunks;
          checki "tail empty" 0 (List.length r.Cemented.tail.Log.records)
      | Error m -> Alcotest.fail m)

let test_cement_recover_roundtrip () =
  with_tmpdir (fun dir ->
      let rng = Util.Prng.create 7 in
      let old_records = gen_records ~min:3 rng in
      let base = Util.Sexp.List [ Util.Sexp.Atom "state"; Util.Sexp.Atom "xyz" ] in
      (match Cemented.cement ~dir ~base ~records:old_records () with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      (* a live tail on top of the cemented base *)
      let tail_records = gen_records ~min:2 rng in
      let w, _ =
        match Log.open_writer ~sync:false ~path:(Cemented.tail_path ~dir) () with
        | Ok x -> x
        | Error m -> Alcotest.fail m
      in
      List.iter (Log.append w) tail_records;
      (match Log.flush w with Ok () -> () | Error m -> Alcotest.fail m);
      Log.close_writer w;
      (match Cemented.recover ~dir with
      | Ok r ->
          checkb "base present" true (r.Cemented.base <> None);
          (match r.Cemented.base with
          | Some b -> checks "base round-trip" (Util.Sexp.to_string base) (Util.Sexp.to_string b)
          | None -> ());
          checks "tail round-trip" (frames tail_records) (frames r.Cemented.tail.Log.records);
          checki "cemented count" (List.length old_records) r.Cemented.cemented_records
      | Error m -> Alcotest.fail m);
      match Cemented.read_all ~dir with
      | Ok rs -> checks "full replay feed" (frames (old_records @ tail_records)) (frames rs)
      | Error m -> Alcotest.fail m)

(* --- trace reconstruction ------------------------------------------ *)

(* The fold under the overlaps a crash can leave: a duplicate [Create]
   changes nothing, an overlapping [Feed] adds only its fresh suffix,
   [Close] marks the trace, and a [Feed] past the history is an error
   that names the gap. *)
let test_traces_of_records () =
  let create id scenario alg_used =
    Log.Create { id; scenario; max_horizon = None; alg = None; alg_used }
  in
  let bits xs = Array.to_list (Array.map Int64.bits_of_float xs) in
  let records =
    [ create "s" "cpu-gpu" "a";
      Log.Feed { id = "s"; seq = 0; loads = [| 1.; 2. |] };
      create "t" "time-varying" "b";
      create "s" "three-tier" "b";
      Log.Feed { id = "s"; seq = 1; loads = [| 2.; 3.; 4. |] };
      Log.Feed { id = "t"; seq = 0; loads = [| 0.5 |] };
      Log.Feed { id = "s"; seq = 0; loads = [| 1. |] };
      Log.Close { id = "s" } ]
  in
  (match Store.Replay.traces_of_records records with
  | Error m -> Alcotest.fail m
  | Ok [ s; t ] ->
      checks "duplicate create ignored" "cpu-gpu" s.Store.Replay.scenario;
      checks "first alg_used kept" "a" s.Store.Replay.alg_used;
      checkb "overlap adds only the fresh suffix" true
        (bits s.Store.Replay.loads = bits [| 1.; 2.; 3.; 4. |]);
      checkb "close marks the trace" true s.Store.Replay.closed;
      checks "second trace in order" "t" t.Store.Replay.id;
      checkb "second trace's loads" true (bits t.Store.Replay.loads = bits [| 0.5 |]);
      checkb "second trace open" false t.Store.Replay.closed
  | Ok ts -> Alcotest.failf "expected 2 traces, got %d" (List.length ts));
  match
    Store.Replay.traces_of_records
      (records @ [ Log.Feed { id = "t"; seq = 3; loads = [| 1. |] } ])
  with
  | Ok _ -> Alcotest.fail "a feed past the history was accepted"
  | Error m ->
      let mentions sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length m && (String.sub m i n = sub || go (i + 1))
        in
        go 0
      in
      checkb ("error names the gap: " ^ m) true
        (mentions "session t" && mentions "seq 3" && mentions "after 1 slots")

(* --- daemon recovery ---------------------------------------------- *)

let expect_decisions = function
  | P.Decisions { configs; _ } -> configs
  | P.Error { msg; _ } -> Alcotest.fail ("unexpected error reply: " ^ msg)
  | _ -> Alcotest.fail "expected decisions"

(* The 4-session fixture from [test_server.ml]: mixed scenarios (both
   algorithms), 14 slots each, the first [cut] fed before the crash. *)
let scenarios =
  [ ("m1", "cpu-gpu"); ("m2", "three-tier"); ("m3", "time-varying"); ("m4", "cpu-gpu") ]

let slots = 14
let cut = 9

let fixture_loads id =
  let rng = Util.Prng.create (Hashtbl.hash id) in
  Array.init slots (fun _ -> Util.Prng.float rng 1.5)

let mk_daemon ?resume dir name cfg =
  match
    Daemon.create ?resume { cfg with Daemon.unix_path = Some (Filename.concat dir name) }
  with
  | Ok d -> d
  | Error m -> Alcotest.fail m

let create_and_feed d ~upto =
  List.iter
    (fun (id, scenario) ->
      (match
         Daemon.handle d (P.Create_session { id; scenario; max_horizon = None; alg = None })
       with
      | P.Session _ -> ()
      | _ -> Alcotest.fail ("create " ^ id));
      ignore
        (expect_decisions
           (Daemon.handle d
              (P.Feed { id; seq = 0; loads = Array.sub (fixture_loads id) 0 upto }))))
    scenarios

(* Full session state (specs, histories, streaming states, bit-exact
   floats) through the Query_snapshot reply. *)
let session_state d id =
  match Daemon.handle d (P.Query_snapshot { id }) with
  | P.Snapshot_state { state; _ } -> Util.Sexp.to_string state
  | _ -> Alcotest.fail ("snapshot " ^ id)

let oracle_decisions id scenario =
  let spec = { Server.Session.scenario; max_horizon = None; alg = None } in
  match Server.Session.create ~id spec with
  | Error (_, m) -> Alcotest.fail m
  | Ok s -> (
      match Server.Session.feed s ~seq:0 (fixture_loads id) with
      | Ok xs -> xs
      | Error (_, m) -> Alcotest.fail m)

(* Drive the fixture through a log-mode daemon that cements mid-run,
   abandon it after its last round (no graceful-stop cement), recover a
   fresh daemon from base + tail, and compare it with the abandoned
   daemon's own live table: the Query_snapshot sexps bit-exactly, then
   the decisions both give for the rest of every trace. *)
let test_log_matches_snapshot_recovery () =
  with_tmpdir (fun dir ->
      let cfg =
        { Daemon.default_config with
          Daemon.log_dir = Some (Filename.concat dir "store"); cement_every = 6 }
      in
      let d1 = mk_daemon dir "c1.sock" cfg in
      create_and_feed d1 ~upto:cut;
      let d_log = mk_daemon ~resume:true dir "c2.sock" cfg in
      checki "log resumed all" (List.length scenarios) (Daemon.session_count d_log);
      List.iter
        (fun (id, _) ->
          checks (id ^ " state bit-identical") (session_state d1 id)
            (session_state d_log id))
        scenarios;
      (* d1's continued appends land in the same tail; nothing recovers
         from it again *)
      List.iter
        (fun (id, _) ->
          let all = fixture_loads id in
          let a = expect_decisions (Daemon.handle d1 (P.Feed { id; seq = 0; loads = all })) in
          let b = expect_decisions (Daemon.handle d_log (P.Feed { id; seq = 0; loads = all })) in
          checkb (id ^ " decisions bit-identical") true
            (Array.for_all2 Model.Config.equal a b))
        scenarios)

let with_faults plans f =
  Util.Faultinj.arm plans;
  Fun.protect ~finally:Util.Faultinj.disarm f

(* An injected [store.append] tears the round's flush: the round raises
   before any reply exists, and the torn half-frame stays on disk.  A
   fresh daemon resumed from the same store recovers exactly the last
   fsync'd table (truncating the torn tail), and the whole trace
   re-fed from slot 0 matches an uninterrupted oracle bit for bit. *)
let test_append_failure_is_crash_only () =
  with_tmpdir (fun dir ->
      let sdir = Filename.concat dir "store" in
      let cfg = { Daemon.default_config with Daemon.log_dir = Some sdir } in
      let d1 = mk_daemon dir "a1.sock" cfg in
      create_and_feed d1 ~upto:cut;
      let before = List.map (fun (id, _) -> (id, session_state d1 id)) scenarios in
      with_faults [ ("store.append", Util.Faultinj.Nth 1) ] (fun () ->
          match
            Daemon.handle d1
              (P.Feed { id = "m1"; seq = cut; loads = Array.sub (fixture_loads "m1") cut 2 })
          with
          | exception Daemon.Store_failed _ -> ()
          | _ -> Alcotest.fail "a failed append still answered the round");
      let tail = Cemented.tail_path ~dir:sdir in
      (match Log.read ~path:tail with
      | Ok scan -> checkb "torn half-frame on disk" true (scan.Log.torn_bytes > 0)
      | Error m -> Alcotest.fail m);
      let d2 = mk_daemon ~resume:true dir "a2.sock" cfg in
      List.iter
        (fun (id, state) -> checks (id ^ " pre-failure state") state (session_state d2 id))
        before;
      (match Log.read ~path:tail with
      | Ok scan -> checki "torn tail truncated" 0 scan.Log.torn_bytes
      | Error m -> Alcotest.fail m);
      List.iter
        (fun (id, scenario) ->
          let all = fixture_loads id in
          let resumed = expect_decisions (Daemon.handle d2 (P.Feed { id; seq = 0; loads = all })) in
          checkb (id ^ " bit-identical to oracle") true
            (Array.for_all2 Model.Config.equal resumed (oracle_decisions id scenario)))
        scenarios)

(* An injected [store.recover] fails the start outright — there is no
   second copy to fall back to — and the same store recovers once the
   site is disarmed. *)
let test_recover_failure_fails_start () =
  with_tmpdir (fun dir ->
      let cfg =
        { Daemon.default_config with Daemon.log_dir = Some (Filename.concat dir "store") }
      in
      create_and_feed (mk_daemon dir "r1.sock" cfg) ~upto:cut;
      let cfg2 = { cfg with Daemon.unix_path = Some (Filename.concat dir "r2.sock") } in
      with_faults [ ("store.recover", Util.Faultinj.Nth 1) ] (fun () ->
          match Daemon.create ~resume:true cfg2 with
          | Ok _ -> Alcotest.fail "resume succeeded through a failed recovery"
          | Error m ->
              let site = "store.recover" in
              let n = String.length site in
              let rec mentions i =
                i + n <= String.length m && (String.sub m i n = site || mentions (i + 1))
              in
              checkb ("error names the site: " ^ m) true (mentions 0));
      let d = mk_daemon ~resume:true dir "r2.sock" cfg in
      checki "recovered all once disarmed" (List.length scenarios) (Daemon.session_count d))

let () =
  Alcotest.run "store"
    [ ( "log",
        [ mk_prop ~count:60 ~name:"append -> recover round-trip (bit-identical)"
            prop_log_roundtrip;
          mk_prop ~count:60 ~name:"torn tail truncates at every byte offset"
            prop_torn_tail_truncates ] );
      ( "cemented",
        [ Alcotest.test_case "corrupt chunk rejected" `Quick test_chunk_crc_rejected;
          Alcotest.test_case "cement/recover round-trip" `Quick
            test_cement_recover_roundtrip ] );
      ( "replay",
        [ Alcotest.test_case "trace fold: duplicates, overlaps, close, gaps" `Quick
            test_traces_of_records ] );
      ( "daemon",
        [ Alcotest.test_case "log recovery == snapshot recovery, 4 sessions" `Quick
            test_log_matches_snapshot_recovery;
          Alcotest.test_case "store.append failure raises, resume recovers" `Quick
            test_append_failure_is_crash_only;
          Alcotest.test_case "store.recover failure fails the start" `Quick
            test_recover_failure_fails_start ] ) ]

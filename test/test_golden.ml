(* Golden decision digests.

   Every decision surface of the seven named scenarios, at their
   default horizons, is reduced to one FNV-1a digest
   ({!Util.Snapshot.fnv1a64}) over its int and [%h] float bits:

   - the schedule and cost of each online algorithm that applies: a, b,
     c (eps 0.5), rand (seed 42), det2d and homog;
   - the schedule and cost of [Dp.solve_optimal] and of
     [Dp.solve_approx ~eps:0.25];
   - the replies of a daemon session ([Daemon.handle], in process) fed
     the scenario's loads in rounds of 7 slots, the last round sent
     twice: one session with the daemon's own pick of algorithm, and
     one each for b, det2d and homog where the daemon serves them;
   - for the same four picks, a [Server.Session] fed those rounds: its
     saved payload's bytes, and its replies when every round is re-sent
     from slot 0.

   The digests are pinned in test/fixtures/golden_decisions_v1.txt.  A
   change that moves any decision or cost bit fails here, naming the
   scenario and the surface.  To re-pin after a deliberate change,
   delete the fixture and run this suite: it fails and prints the lines
   to record. *)

module P = Server.Protocol
module Daemon = Server.Daemon

(* cwd is test/ under `dune runtest`, the project root under
   `dune exec test/test_golden.exe`. *)
let fixture_path =
  let path = Filename.concat "fixtures" "golden_decisions_v1.txt" in
  if Sys.file_exists path then path else Filename.concat "test" path

let add_int b i =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ' '

let add_float b f =
  Buffer.add_string b (Printf.sprintf "%h" f);
  Buffer.add_char b ' '

let add_schedule b schedule =
  Array.iter
    (fun x ->
      Array.iter (add_int b) x;
      Buffer.add_char b ';')
    schedule

let digest fill =
  let b = Buffer.create 1024 in
  fill b;
  Util.Snapshot.fnv1a64 (Buffer.contents b)

let schedule_digest ?cost inst schedule =
  digest (fun b ->
      add_schedule b schedule;
      Option.iter (add_float b) cost;
      add_float b (Model.Cost.schedule inst schedule))

let online_surfaces inst =
  if inst.Model.Instance.size_varying then []
  else
    List.filter_map
      (fun (name, applies, run) ->
        if applies then Some ("online-" ^ name, schedule_digest inst (run ())) else None)
      [ ( "a",
          inst.Model.Instance.time_independent,
          fun () -> (Online.Alg_a.run inst).Online.Alg_a.schedule );
        ("b", true, fun () -> (Online.Alg_b.run inst).Online.Alg_b.schedule);
        ("c", true, fun () -> (Online.Alg_c.run ~eps:0.5 inst).Online.Alg_c.schedule);
        ( "rand",
          true,
          fun () ->
            (Online.Alg_rand.run ~rng:(Util.Prng.create 42) inst).Online.Alg_rand.schedule
        );
        ( "det2d",
          Online.Alg_det2d.applicable inst,
          fun () -> (Online.Alg_det2d.run inst).Online.Alg_det2d.schedule );
        ( "homog",
          Online.Alg_homog.applicable inst,
          fun () -> (Online.Alg_homog.run inst).Online.Alg_homog.schedule ) ]

let dp_surfaces inst =
  List.map
    (fun (name, solve) ->
      let r = solve inst in
      (name, schedule_digest ~cost:r.Offline.Dp.cost inst r.Offline.Dp.schedule))
    [ ("dp-optimal", Offline.Dp.solve_optimal);
      ("dp-approx-0.25", Offline.Dp.solve_approx ~eps:0.25) ]

let round = 7

(* One served session, fed the scenario's own loads: every reply's slot
   and configurations, the re-sent last round, and the count the
   session reports on re-attach.  [None] when the daemon refuses to
   serve [alg] for this scenario. *)
let daemon_surface name inst alg =
  let dir = Filename.temp_file "rs-golden" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let sock = Filename.concat dir "d.sock" in
  let d =
    match Daemon.create { Daemon.default_config with Daemon.unix_path = Some sock } with
    | Ok d -> d
    | Error m -> Alcotest.fail m
  in
  Fun.protect
    ~finally:(fun () ->
      Daemon.close d;
      if Sys.file_exists sock then Sys.remove sock;
      Sys.rmdir dir)
    (fun () ->
      let create () =
        Daemon.handle d
          (P.Create_session { id = "g"; scenario = name; max_horizon = None; alg })
      in
      let loads = inst.Model.Instance.load in
      let horizon = Array.length loads in
      let feed b seq =
        let n = min round (horizon - seq) in
        match Daemon.handle d (P.Feed { id = "g"; seq; loads = Array.sub loads seq n }) with
        | P.Decisions { seq; configs; _ } ->
            add_int b seq;
            add_schedule b configs
        | P.Error { msg; _ } -> Alcotest.failf "%s: feed at %d: %s" name seq msg
        | _ -> Alcotest.failf "%s: feed at %d: unexpected reply" name seq
      in
      match create () with
      | P.Error { code = P.Bad_request; _ } when alg <> None -> None
      | P.Session { alg = served; fed = 0; _ } ->
          let surface = match alg with None -> "daemon" | Some a -> "daemon-" ^ a in
          Some
            ( surface,
              digest (fun b ->
                  Buffer.add_string b served;
                  let last = ref 0 and seq = ref 0 in
                  while !seq < horizon do
                    feed b !seq;
                    last := !seq;
                    seq := !seq + round
                  done;
                  feed b !last;
                  match create () with
                  | P.Session { fed; _ } -> add_int b fed
                  | _ -> Alcotest.failf "%s: re-attach failed" name) )
      | _ -> Alcotest.failf "%s: create-session failed" name)

(* A [Server.Session] of [alg] fed the same rounds as [daemon_surface]:
   the digest of its saved payload ([save-<alg>]), and of the replies
   when every round is re-sent from seq 0 after the full feed
   ([redeliver-<alg>]); [auto] is the session's own pick.  Empty where
   the session refuses [alg]. *)
let session_surfaces name inst alg =
  match
    Server.Session.create ~id:"g" { Server.Session.scenario = name; max_horizon = None; alg }
  with
  | Error (P.Bad_request, _) when alg <> None -> []
  | Error (_, msg) -> Alcotest.failf "%s: session: %s" name msg
  | Ok s ->
      let loads = inst.Model.Instance.load in
      let horizon = Array.length loads in
      let feed b seq =
        let n = min round (horizon - seq) in
        match Server.Session.feed s ~seq (Array.sub loads seq n) with
        | Ok configs ->
            add_int b seq;
            add_schedule b configs
        | Error (_, msg) -> Alcotest.failf "%s: session feed at %d: %s" name seq msg
      in
      let rec rounds b seq =
        if seq < horizon then begin
          feed b seq;
          rounds b (seq + round)
        end
      in
      let first = Buffer.create 1024 in
      rounds first 0;
      feed first ((horizon - 1) / round * round);
      let tag = Option.value alg ~default:"auto" in
      [ ("save-" ^ tag, Util.Snapshot.fnv1a64 (Util.Sexp.to_string (Server.Session.save s)));
        ("redeliver-" ^ tag, digest (fun b -> rounds b 0)) ]

let surfaces name inst =
  let algs = [ None; Some "b"; Some "det2d"; Some "homog" ] in
  online_surfaces inst @ dp_surfaces inst
  @ List.filter_map (daemon_surface name inst) algs
  @ List.concat_map (session_surfaces name inst) algs

let read_fixture () =
  if not (Sys.file_exists fixture_path) then None
  else begin
    let ic = open_in fixture_path in
    let rec go acc =
      match input_line ic with
      | exception End_of_file ->
          close_in ic;
          List.rev acc
      | line when line = "" || line.[0] = '#' -> go acc
      | line -> (
          match String.split_on_char ' ' line with
          | [ scenario; surface; d ] -> go (((scenario, surface), d) :: acc)
          | _ -> Alcotest.failf "malformed fixture line %S" line)
    in
    Some (go [])
  end

let check_scenario pinned name mk () =
  let computed = surfaces name (mk None) in
  match pinned with
  | None ->
      List.iter (fun (surface, d) -> Printf.printf "%s %s %s\n" name surface d) computed;
      Alcotest.failf "%s: fixture %s missing; the lines above are this build's digests"
        name fixture_path
  | Some pinned ->
      let mine = List.filter (fun ((s, _), _) -> s = name) pinned in
      let wrong =
        List.filter_map
          (fun (surface, d) ->
            match List.assoc_opt (name, surface) pinned with
            | Some p when p = d -> None
            | Some p -> Some (Printf.sprintf "%s %s: digest %s, pinned %s" name surface d p)
            | None -> Some (Printf.sprintf "%s %s: digest %s, not pinned" name surface d))
          computed
        @ List.filter_map
            (fun ((_, surface), _) ->
              if List.mem_assoc surface computed then None
              else Some (Printf.sprintf "%s %s: pinned but not computed" name surface))
            mine
      in
      if wrong <> [] then Alcotest.fail (String.concat "\n" wrong)

let () =
  let pinned = read_fixture () in
  Alcotest.run "golden"
    [ ( "decisions",
        List.map
          (fun (name, mk) -> Alcotest.test_case name `Quick (check_scenario pinned name mk))
          Sim.Scenarios.named ) ]

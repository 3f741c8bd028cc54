(* End-to-end benchmark driver.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Generates the workload's inputs from the seed, measures for S
   seconds, checks every output, and prints the metrics as the last
   line of standard output: the end-to-end metrics with --trace 0, the
   per-layer ladder with --trace 1.  Run it through perfbench/run.sh
   from the repository root, which builds it and the daemon first. *)

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the per-layer ladder") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let kind =
    match List.assoc_opt !workload Gen.workloads with
    | Some k -> k
    | None ->
        prerr_endline
          ("perfbench: unknown workload " ^ !workload ^ "; one of: "
          ^ String.concat ", " (List.map fst Gen.workloads));
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let root = "_perfbench" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  let work = Filename.concat root (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  Serve.rm_rf work;
  Unix.mkdir work 0o755;
  let r = Report.create () in
  let seconds = float_of_int !seconds in
  (match
     match (kind, !trace) with
     | Gen.Serve w, 0 -> Serve.run ~w ~seed:!seed ~seconds ~work r
     | Gen.Offline o, 0 -> Offline_solve.run ~o ~seed:!seed ~seconds r
     | _ ->
         Ladder.run ~kind ~seed:!seed ~seconds ~work
           ~spans:(Filename.concat root (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed))
           r
   with
  | () -> ()
  | exception e ->
      Core.Server_spawn.kill_all ();
      Serve.rm_rf work;
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1);
  Serve.rm_rf work;
  Report.print r ~correct:(r.Report.failed = 0)

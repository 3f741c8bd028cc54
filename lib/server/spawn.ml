type config = {
  bin : string;
  sock : string;
  metrics_port : int option;
  resume : string option;
  crash_after : int option;
  audit : (int * int) option;
  faults : (string * string) list;
  fault_seed : int option;
  log_dir : string option;
  cement_every : int option;
  log : string;
  extra_args : string list;
}

let config ~bin ~sock ~log =
  { bin; sock; metrics_port = None; resume = None; crash_after = None; audit = None;
    faults = []; fault_seed = None; log_dir = None; cement_every = None; log;
    extra_args = [] }

type t = {
  cfg : config;
  child : int;
  mutable status : Unix.process_status option;  (* set once reaped *)
}

(* Every live child, so [at_exit] can guarantee nothing leaks.  The
   registry is only touched from the spawning process (fork children
   exec immediately). *)
let registry : (int, unit) Hashtbl.t = Hashtbl.create 8
let at_exit_installed = ref false

let kill_all () =
  Hashtbl.iter
    (fun pid () ->
      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    registry

let track pid =
  if not !at_exit_installed then begin
    at_exit_installed := true;
    at_exit kill_all
  end;
  Hashtbl.replace registry pid ()

let argv cfg =
  let opt name = function None -> [] | Some v -> [ name; v ] in
  let int_opt name = function None -> [] | Some v -> [ name; string_of_int v ] in
  List.concat
    [ [ cfg.bin; "serve"; "--unix"; cfg.sock ];
      int_opt "--metrics-port" cfg.metrics_port;
      (if cfg.resume = None then [] else [ "--resume" ]);
      int_opt "--crash-after" cfg.crash_after;
      (match cfg.audit with
      | None -> []
      | Some (every, sample) ->
          [ "--audit-every"; string_of_int every;
            "--audit-sample"; string_of_int sample ]);
      List.concat_map (fun (site, plan) -> [ "--fault"; site ^ "=" ^ plan ]) cfg.faults;
      int_opt "--fault-seed" cfg.fault_seed;
      opt "--log-dir" cfg.log_dir;
      int_opt "--cement-every" cfg.cement_every;
      cfg.extra_args ]

(* A killed daemon can leave torn [*.tmp] files behind — a snapshot
   rename that never happened, or an injected [store.cement] crash's
   orphaned chunk.  They are never valid state, and in a reused workdir
   a stale partial file is a trap for any later scan, so sweep them
   before every (re)spawn. *)
let clean_orphans cfg =
  match cfg.log_dir with
  | None -> ()
  | Some dir -> (
      match Sys.readdir dir with
      | exception Sys_error _ -> ()
      | entries ->
          Array.iter
            (fun name ->
              if Filename.check_suffix name ".tmp" then
                try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
            entries)

let start cfg =
  clean_orphans cfg;
  match
    let logfd =
      Unix.openfile cfg.log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close logfd with Unix.Unix_error _ -> ())
      (fun () ->
        let args = Array.of_list (argv cfg) in
        Unix.create_process cfg.bin args Unix.stdin logfd logfd)
  with
  | pid ->
      track pid;
      Ok { cfg; child = pid; status = None }
  | exception Unix.Unix_error (e, fn, arg) ->
      Error
        (Printf.sprintf "spawn %s: %s %s: %s" cfg.bin fn arg (Unix.error_message e))

let pid t = t.child

let reap t ~block =
  match t.status with
  | Some _ -> ()
  | None -> (
      let flags = if block then [] else [ Unix.WNOHANG ] in
      match Unix.waitpid flags t.child with
      | 0, _ -> ()
      | _, st ->
          t.status <- Some st;
          Hashtbl.remove registry t.child
      | exception Unix.Unix_error (ECHILD, _, _) ->
          (* already reaped elsewhere; forget it *)
          t.status <- Some (Unix.WEXITED 0);
          Hashtbl.remove registry t.child
      | exception Unix.Unix_error (EINTR, _, _) -> ())

let alive t =
  reap t ~block:false;
  t.status = None

let log_tail ?(lines = 5) t =
  match In_channel.with_open_text t.cfg.log In_channel.input_all with
  | exception Sys_error _ -> ""
  | text ->
      let all = String.split_on_char '\n' (String.trim text) in
      let n = List.length all in
      String.concat " | " (List.filteri (fun i _ -> i >= n - lines) all)

let wait_ready ?(timeout_s = 10.) t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec poll () =
    if not (alive t) then
      Error
        (Printf.sprintf "daemon exited before binding %s (%s)" t.cfg.sock
           (log_tail t))
    else
      match Client.connect (Client.Unix_path t.cfg.sock) with
      | Ok c ->
          Client.close c;
          Ok ()
      | Error _ ->
          if Unix.gettimeofday () > deadline then
            Error
              (Printf.sprintf "daemon did not bind %s within %.0fs (%s)" t.cfg.sock
                 timeout_s (log_tail t))
          else begin
            Unix.sleepf 0.02;
            poll ()
          end
  in
  poll ()

let wait_exit ?(timeout_s = 30.) t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec poll () =
    reap t ~block:false;
    match t.status with
    | Some st -> Ok st
    | None ->
        if Unix.gettimeofday () > deadline then
          Error (Printf.sprintf "daemon (pid %d) still running after %.0fs" t.child timeout_s)
        else begin
          Unix.sleepf 0.02;
          poll ()
        end
  in
  poll ()

let stop ?(grace_s = 10.) t =
  reap t ~block:false;
  match t.status with
  | Some st -> st
  | None -> (
      (try Unix.kill t.child Sys.sigterm with Unix.Unix_error _ -> ());
      match wait_exit ~timeout_s:grace_s t with
      | Ok st -> st
      | Error _ -> (
          (try Unix.kill t.child Sys.sigkill with Unix.Unix_error _ -> ());
          reap t ~block:true;
          match t.status with Some st -> st | None -> Unix.WSIGNALED Sys.sigkill))

let pick_free_port () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt fd SO_REUSEADDR true;
      Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | ADDR_INET (_, port) -> port
      | ADDR_UNIX _ -> assert false)

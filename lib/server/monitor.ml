(* Client side of the telemetry plane: scrape a daemon's metrics
   endpoint, digest the Prometheus samples into the handful of numbers
   an operator watches, and render them as a table or JSON.  The
   [rightsizer monitor] subcommand is a thin cmdliner wrapper around
   this module. *)

module ME = Obs.Metrics_export

(* --- scraping ------------------------------------------------------- *)

let read_all fd =
  let buf = Buffer.create 8192 in
  let chunk = Bytes.create 8192 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ();
  Buffer.contents buf

(* One-shot HTTP/1.0 GET against the daemon's loopback listener; the
   body is everything after the first blank line. *)
let scrape ~port =
  match Unix.socket PF_INET SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Error ("monitor: socket: " ^ Unix.error_message e)
  | fd -> (
      let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
      match
        Fun.protect ~finally (fun () ->
            Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
            let req = "GET /metrics HTTP/1.0\r\n\r\n" in
            ignore (Unix.write_substring fd req 0 (String.length req));
            read_all fd)
      with
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "monitor: cannot scrape 127.0.0.1:%d: %s" port
               (Unix.error_message e))
      | raw -> (
          (* find the header/body break *)
          let n = String.length raw in
          let rec find i =
            if i + 4 > n then None
            else if String.sub raw i 4 = "\r\n\r\n" then Some i
            else find (i + 1)
          in
          match find 0 with
          | Some i -> Ok (String.sub raw (i + 4) (n - i - 4))
          | None -> Error "monitor: malformed HTTP response (no header break)"))

(* --- digesting ------------------------------------------------------ *)

type snap = {
  at : float;  (* client wall clock at scrape time *)
  samples : ME.sample list;
}

let parse body =
  match ME.parse_prometheus body with
  | samples -> Ok { at = Unix.gettimeofday (); samples }
  | exception ME.Parse_error m -> Error ("monitor: " ^ m)

let value snap name =
  List.find_map
    (fun (s : ME.sample) ->
      if s.s_name = name && s.s_labels = [] then Some s.s_value else None)
    snap.samples

let value0 snap name = Option.value ~default:0. (value snap name)

(* Reconstruct an interpolated quantile from a scraped histogram's
   cumulative [_bucket] samples, tightened by its exact [_min]/[_max]
   when present — the read-side mirror of [Obs.Histogram.quantile]. *)
let quantile snap name q =
  let buckets =
    List.filter_map
      (fun (s : ME.sample) ->
        if s.s_name <> name ^ "_bucket" then None
        else
          match s.s_labels with
          | [ ("le", le) ] ->
              let edge =
                match String.lowercase_ascii le with
                | "+inf" | "inf" -> Float.infinity
                | le -> ( try float_of_string le with Failure _ -> Float.nan)
              in
              if Float.is_nan edge then None else Some (edge, s.s_value)
          | _ -> None)
      snap.samples
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  match List.rev buckets with
  | [] -> None
  | (_, total) :: _ when total <= 0. -> None
  | (_, total) :: _ ->
      let vmin = value snap (name ^ "_min")
      and vmax = value snap (name ^ "_max") in
      let q = Float.max 0. (Float.min 1. q) in
      let target = q *. total in
      let rec go lower = function
        | [] -> Option.value vmax ~default:lower
        | (edge, cum) :: rest ->
            if cum >= target && cum > 0. then begin
              let lo = Option.fold ~none:lower ~some:(Float.max lower) vmin in
              let hi =
                if Float.is_finite edge then edge
                else Option.value vmax ~default:lower
              in
              let hi = Option.fold ~none:hi ~some:(Float.min hi) vmax in
              let hi = Float.max lo hi in
              (* cumulative counts lose the per-bucket fraction; split
                 the bucket at its midpoint *)
              lo +. ((hi -. lo) /. 2.)
            end
            else go edge rest
      in
      Some (go 0. buckets)

type row = {
  sessions : float;
  connections : float;
  requests : float;
  decisions : float;
  batches : float;
  p50_req_us : float option;
  p99_req_us : float option;
  p50_batch_us : float option;
  p99_batch_us : float option;
  regret_ratio : float option;
  regret_abs : float option;
  audit_lag : float option;
  audit_runs : float;
  audit_failures : float;
  uptime_s : float;
  at : float;
}

let row_of snap =
  { sessions = value0 snap "server_sessions";
    connections = value0 snap "server_connections";
    requests = value0 snap "server_requests";
    decisions = value0 snap "server_decisions";
    batches = value0 snap "server_batches";
    p50_req_us = quantile snap "server_request_latency_us" 0.5;
    p99_req_us = quantile snap "server_request_latency_us" 0.99;
    p50_batch_us = quantile snap "server_batch_duration_us" 0.5;
    p99_batch_us = quantile snap "server_batch_duration_us" 0.99;
    regret_ratio = value snap "audit_regret_ratio";
    regret_abs = value snap "audit_regret_abs";
    audit_lag = value snap "audit_lag_rounds";
    audit_runs = value0 snap "audit_runs";
    audit_failures = value0 snap "audit_failures";
    uptime_s = value0 snap "server_uptime_s";
    at = snap.at }

(* --- rendering ------------------------------------------------------ *)

let fmt_opt = function
  | None -> "-"
  | Some v when Float.is_nan v -> "-"
  | Some v -> Printf.sprintf "%.1f" v

let fmt_ratio = function
  | None -> "-"
  | Some v when Float.is_nan v -> "-"
  | Some v -> Printf.sprintf "%.4f" v

(* decisions/s needs two scrapes; [prev] is the previous row. *)
let rate ?prev row =
  match prev with
  | Some p when row.at > p.at && row.decisions >= p.decisions ->
      Some ((row.decisions -. p.decisions) /. (row.at -. p.at))
  | _ -> None

let render ?prev row =
  let b = Buffer.create 512 in
  let line k v = Buffer.add_string b (Printf.sprintf "  %-18s %s\n" k v) in
  Buffer.add_string b
    (Printf.sprintf "rightsizer monitor — up %.0fs\n" row.uptime_s);
  line "sessions" (Printf.sprintf "%.0f" row.sessions);
  line "connections" (Printf.sprintf "%.0f" row.connections);
  line "requests" (Printf.sprintf "%.0f" row.requests);
  line "decisions" (Printf.sprintf "%.0f" row.decisions);
  (match rate ?prev row with
  | Some r -> line "decisions/s" (Printf.sprintf "%.1f" r)
  | None -> line "decisions/s" "-");
  line "batches" (Printf.sprintf "%.0f" row.batches);
  line "req p50/p99 (us)"
    (Printf.sprintf "%s / %s" (fmt_opt row.p50_req_us) (fmt_opt row.p99_req_us));
  line "batch p50/p99 (us)"
    (Printf.sprintf "%s / %s" (fmt_opt row.p50_batch_us) (fmt_opt row.p99_batch_us));
  line "regret ratio" (fmt_ratio row.regret_ratio);
  line "regret abs" (fmt_ratio row.regret_abs);
  line "audit lag (slots)" (fmt_opt row.audit_lag);
  line "audit runs" (Printf.sprintf "%.0f" row.audit_runs);
  line "audit failures" (Printf.sprintf "%.0f" row.audit_failures);
  Buffer.contents b

let json_field b name v =
  if Buffer.length b > 1 then Buffer.add_char b ',';
  Buffer.add_string b (Printf.sprintf "%S:" name);
  match v with
  | None -> Buffer.add_string b "null"
  | Some f when Float.is_nan f -> Buffer.add_string b "null"
  | Some f when Float.is_integer f && Float.abs f < 1e15 ->
      Buffer.add_string b (Printf.sprintf "%.0f" f)
  | Some f -> Buffer.add_string b (Printf.sprintf "%.6g" f)

let to_json ?prev row =
  let b = Buffer.create 512 in
  Buffer.add_char b '{';
  json_field b "sessions" (Some row.sessions);
  json_field b "connections" (Some row.connections);
  json_field b "requests" (Some row.requests);
  json_field b "decisions" (Some row.decisions);
  json_field b "decisions_per_s" (rate ?prev row);
  json_field b "batches" (Some row.batches);
  json_field b "p50_request_us" row.p50_req_us;
  json_field b "p99_request_us" row.p99_req_us;
  json_field b "p50_batch_us" row.p50_batch_us;
  json_field b "p99_batch_us" row.p99_batch_us;
  json_field b "regret_ratio" row.regret_ratio;
  json_field b "regret_abs" row.regret_abs;
  json_field b "audit_lag_rounds" row.audit_lag;
  json_field b "audit_runs" (Some row.audit_runs);
  json_field b "audit_failures" (Some row.audit_failures);
  json_field b "uptime_s" (Some row.uptime_s);
  Buffer.add_char b '}';
  Buffer.contents b

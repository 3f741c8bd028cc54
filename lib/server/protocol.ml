module S = Util.Sexp
module Snap = Util.Snapshot

let version = 1

type request =
  | Hello of { version : int }
  | Create_session of {
      id : string;
      scenario : string;
      max_horizon : int option;
      alg : string option;  (* solver name; None = let the daemon pick *)
    }
  | Feed of { id : string; seq : int; loads : float array }
  | Query_snapshot of { id : string }
  | Stats
  | Metrics
  | Close of { id : string }
  | Shutdown

type error_code =
  | Bad_request
  | Unsupported_version
  | Unknown_scenario
  | Unknown_session
  | Session_exists
  | Too_many_sessions
  | Bad_seq
  | Bad_volume
  | Over_capacity
  | Horizon_exhausted
  | Injected
  | Internal

let error_codes =
  [ (Bad_request, "bad-request");
    (Unsupported_version, "unsupported-version");
    (Unknown_scenario, "unknown-scenario");
    (Unknown_session, "unknown-session");
    (Session_exists, "session-exists");
    (Too_many_sessions, "too-many-sessions");
    (Bad_seq, "bad-seq");
    (Bad_volume, "bad-volume");
    (Over_capacity, "over-capacity");
    (Horizon_exhausted, "horizon-exhausted");
    (Injected, "injected");
    (Internal, "internal") ]

let error_code_to_string c = List.assoc c error_codes

let error_code_of_string s =
  List.find_map (fun (c, name) -> if name = s then Some c else None) error_codes

type stats = {
  accepts : int;
  sessions : int;
  requests : int;
  decisions : int;
  batches : int;
  p50_us : float;
  p99_us : float;
}

type response =
  | Welcome of { version : int }
  | Session of { id : string; alg : string; types : int; fed : int }
  | Decisions of { id : string; seq : int; configs : Model.Config.t array }
  | Snapshot_state of { id : string; state : Util.Sexp.t }
  | Stats_reply of stats
  | Metrics_reply of { body : string }
  | Closed of { id : string }
  | Bye
  | Error of { code : error_code; msg : string; fed : int option }

(* --- safe atoms ---------------------------------------------------- *)

(* The s-expression lexer delimits atoms on whitespace, parens and ';';
   '%' is our own escape lead-in.  Everything else (including non-ASCII
   bytes) passes through untouched, so quoted strings stay readable. *)
let needs_escape c =
  c <= ' ' || c = '(' || c = ')' || c = ';' || c = '%' || c = '\x7f'

let quote s =
  if s = "" then "%"
  else if String.exists needs_escape s then begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if needs_escape c then Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end
  else s

let unquote s =
  if s = "%" then ""
  else if not (String.contains s '%') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let hex c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let i = ref 0 in
    while !i < n do
      (if s.[!i] <> '%' then Buffer.add_char buf s.[!i]
       else if !i + 2 < n then begin
         match (hex s.[!i + 1], hex s.[!i + 2]) with
         | Some hi, Some lo ->
             Buffer.add_char buf (Char.chr ((hi * 16) + lo));
             i := !i + 2
         | _ -> Buffer.add_char buf '?'
       end
       else Buffer.add_char buf '?');
      incr i
    done;
    Buffer.contents buf
  end

let valid_id s =
  let n = String.length s in
  n >= 1 && n <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.' || c = ':')
       s

(* --- encoding ------------------------------------------------------ *)

let int_field k v = S.List [ S.Atom k; Snap.int_atom v ]
let str_field k v = S.List [ S.Atom k; S.Atom (quote v) ]

let request_to_sexp = function
  | Hello { version } -> S.List [ S.Atom "hello"; int_field "version" version ]
  | Create_session { id; scenario; max_horizon; alg } ->
      S.List
        (S.Atom "create-session" :: str_field "id" id :: str_field "scenario" scenario
        :: ((match max_horizon with
            | None -> []
            | Some h -> [ int_field "max-horizon" h ])
           @ (match alg with None -> [] | Some a -> [ str_field "alg" a ])))
  | Feed { id; seq; loads } ->
      S.List
        [ S.Atom "feed"; str_field "id" id; int_field "seq" seq;
          Snap.float_array_field "loads" loads ]
  | Query_snapshot { id } -> S.List [ S.Atom "snapshot"; str_field "id" id ]
  | Stats -> S.List [ S.Atom "stats" ]
  | Metrics -> S.List [ S.Atom "metrics" ]
  | Close { id } -> S.List [ S.Atom "close"; str_field "id" id ]
  | Shutdown -> S.List [ S.Atom "shutdown" ]

let config_row (x : Model.Config.t) = Snap.int_array_field "x" x

let response_to_sexp = function
  | Welcome { version } -> S.List [ S.Atom "welcome"; int_field "version" version ]
  | Session { id; alg; types; fed } ->
      S.List
        [ S.Atom "session"; str_field "id" id; str_field "alg" alg;
          int_field "types" types; int_field "fed" fed ]
  | Decisions { id; seq; configs } ->
      S.List
        [ S.Atom "decisions"; str_field "id" id; int_field "seq" seq;
          S.List (S.Atom "configs" :: Array.fold_right (fun x l -> config_row x :: l) configs []) ]
  | Snapshot_state { id; state } ->
      S.List
        [ S.Atom "snapshot"; str_field "id" id; S.List [ S.Atom "state"; state ] ]
  | Stats_reply { accepts; sessions; requests; decisions; batches; p50_us; p99_us } ->
      S.List
        [ S.Atom "stats"; int_field "accepts" accepts; int_field "sessions" sessions;
          int_field "requests" requests; int_field "decisions" decisions;
          int_field "batches" batches;
          S.List [ S.Atom "p50-us"; Snap.float_atom p50_us ];
          S.List [ S.Atom "p99-us"; Snap.float_atom p99_us ] ]
  | Metrics_reply { body } -> S.List [ S.Atom "metrics"; str_field "body" body ]
  | Closed { id } -> S.List [ S.Atom "closed"; str_field "id" id ]
  | Bye -> S.List [ S.Atom "bye" ]
  | Error { code; msg; fed } ->
      S.List
        (S.Atom "error"
        :: S.List [ S.Atom "code"; S.Atom (error_code_to_string code) ]
        :: str_field "msg" msg
        :: (match fed with None -> [] | Some n -> [ int_field "fed" n ]))

(* --- decoding ------------------------------------------------------ *)

let str_of_field fields name =
  match S.assoc name fields with
  | Some [ S.Atom a ] -> Ok (unquote a)
  | Some _ -> Stdlib.Error (Printf.sprintf "malformed field %s" name)
  | None -> Stdlib.Error (Printf.sprintf "missing field %s" name)

let opt_int_of_field fields name =
  match S.assoc name fields with
  | None -> Ok None
  | Some _ -> Result.map Option.some (Snap.int_of_field fields name)

let ( let* ) = Result.bind

let request_of_sexp sexp =
  match sexp with
  | S.List (S.Atom "hello" :: fields) ->
      let* v = Snap.int_of_field fields "version" in
      Ok (Hello { version = v })
  | S.List (S.Atom "create-session" :: fields) ->
      let* id = str_of_field fields "id" in
      let* scenario = str_of_field fields "scenario" in
      let* max_horizon = opt_int_of_field fields "max-horizon" in
      let* alg =
        match S.assoc "alg" fields with
        | None -> Ok None
        | Some _ -> Result.map Option.some (str_of_field fields "alg")
      in
      Ok (Create_session { id; scenario; max_horizon; alg })
  | S.List (S.Atom "feed" :: fields) -> (
      (* The hot request, decoded without a closure per field. *)
      match str_of_field fields "id" with
      | Error _ as e -> e
      | Ok id -> (
          match Snap.int_of_field fields "seq" with
          | Error m -> Error m
          | Ok seq -> (
              match Snap.floats_of_field fields "loads" with
              | Error m -> Error m
              | Ok loads -> Ok (Feed { id; seq; loads }))))
  | S.List (S.Atom "snapshot" :: fields) ->
      let* id = str_of_field fields "id" in
      Ok (Query_snapshot { id })
  | S.List [ S.Atom "stats" ] -> Ok Stats
  | S.List [ S.Atom "metrics" ] -> Ok Metrics
  | S.List (S.Atom "close" :: fields) ->
      let* id = str_of_field fields "id" in
      Ok (Close { id })
  | S.List [ S.Atom "shutdown" ] -> Ok Shutdown
  | S.Atom _ | S.List _ -> Stdlib.Error "unknown request"

let float_of_field fields name =
  match S.assoc name fields with
  | Some [ atom ] -> (
      match Snap.float_of_atom atom with
      | Some f -> Ok f
      | None -> Stdlib.Error (Printf.sprintf "malformed field %s" name))
  | Some _ -> Stdlib.Error (Printf.sprintf "malformed field %s" name)
  | None -> Stdlib.Error (Printf.sprintf "missing field %s" name)

let configs_of_field fields name =
  match S.assoc name fields with
  | None -> Stdlib.Error (Printf.sprintf "missing field %s" name)
  | Some rows ->
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | (S.List (S.Atom "x" :: _) as row) :: rest -> (
            match Snap.ints_of_field [ row ] "x" with
            | Ok r -> go (r :: acc) rest
            | Stdlib.Error _ as e -> e)
        | _ -> Stdlib.Error (Printf.sprintf "malformed field %s" name)
      in
      go [] rows

let response_of_sexp sexp =
  match sexp with
  | S.List (S.Atom "welcome" :: fields) ->
      let* v = Snap.int_of_field fields "version" in
      Ok (Welcome { version = v })
  | S.List (S.Atom "session" :: fields) ->
      let* id = str_of_field fields "id" in
      let* alg = str_of_field fields "alg" in
      let* types = Snap.int_of_field fields "types" in
      let* fed = Snap.int_of_field fields "fed" in
      Ok (Session { id; alg; types; fed })
  | S.List (S.Atom "decisions" :: fields) ->
      let* id = str_of_field fields "id" in
      let* seq = Snap.int_of_field fields "seq" in
      let* configs = configs_of_field fields "configs" in
      Ok (Decisions { id; seq; configs })
  | S.List (S.Atom "snapshot" :: fields) -> (
      let* id = str_of_field fields "id" in
      match S.assoc "state" fields with
      | Some [ state ] -> Ok (Snapshot_state { id; state })
      | Some _ | None -> Stdlib.Error "missing field state")
  | S.List (S.Atom "stats" :: fields) ->
      let* accepts = Snap.int_of_field fields "accepts" in
      let* sessions = Snap.int_of_field fields "sessions" in
      let* requests = Snap.int_of_field fields "requests" in
      let* decisions = Snap.int_of_field fields "decisions" in
      let* batches = Snap.int_of_field fields "batches" in
      let* p50_us = float_of_field fields "p50-us" in
      let* p99_us = float_of_field fields "p99-us" in
      Ok (Stats_reply { accepts; sessions; requests; decisions; batches; p50_us; p99_us })
  | S.List (S.Atom "metrics" :: fields) ->
      let* body = str_of_field fields "body" in
      Ok (Metrics_reply { body })
  | S.List (S.Atom "closed" :: fields) ->
      let* id = str_of_field fields "id" in
      Ok (Closed { id })
  | S.List [ S.Atom "bye" ] -> Ok Bye
  | S.List (S.Atom "error" :: fields) -> (
      let* code_s = str_of_field fields "code" in
      let* msg = str_of_field fields "msg" in
      let* fed = opt_int_of_field fields "fed" in
      match error_code_of_string code_s with
      | Some code -> Ok (Error { code; msg; fed })
      | None -> Stdlib.Error (Printf.sprintf "unknown error code %s" code_s))
  | S.Atom _ | S.List _ -> Stdlib.Error "unknown response"

(* Serving subsystem tests: wire codec framing and round-trips, the
   protocol vocabulary, session idempotence, the daemon's request
   semantics and fault degradation, and crash/resume bit-identity with
   several concurrent sessions.

   Wire values are generated from an integer seed (the [test_props.ml]
   convention) so qcheck shrinking walks over seeds and every failure
   replays. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let st = Model.Server_type.make

module P = Server.Protocol
module Codec = Server.Codec
module Session = Server.Session
module Daemon = Server.Daemon

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let mk_prop ?(count = 100) ~name prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count seed_gen prop)

(* --- generated wire values ------------------------------------------ *)

let gen_string rng =
  let n = Util.Prng.int rng 12 in
  String.init n (fun _ -> Char.chr (Util.Prng.int rng 256))

let gen_id rng =
  let alphabet = "abcXYZ019_.:-" in
  let n = 1 + Util.Prng.int rng 16 in
  String.init n (fun _ -> alphabet.[Util.Prng.int rng (String.length alphabet)])

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

let gen_config rng =
  Array.init (1 + Util.Prng.int rng 4) (fun _ -> Util.Prng.int rng 50)

let gen_request rng : P.request =
  match Util.Prng.int rng 8 with
  | 0 -> P.Hello { version = Util.Prng.int rng 10 }
  | 1 ->
      P.Create_session
        { id = gen_id rng;
          scenario = gen_string rng;
          max_horizon = (if Util.Prng.bool rng then Some (Util.Prng.int rng 100) else None);
          alg =
            (if Util.Prng.bool rng then
               Some (List.nth [ "a"; "b"; "det2d"; "homog" ] (Util.Prng.int rng 4))
             else None) }
  | 2 -> P.Feed { id = gen_id rng; seq = Util.Prng.int rng 1000; loads = gen_floats rng }
  | 3 -> P.Query_snapshot { id = gen_id rng }
  | 4 -> P.Stats
  | 5 -> P.Close { id = gen_id rng }
  | 6 -> P.Metrics
  | _ -> P.Shutdown

let gen_error_code rng =
  let all =
    [| P.Bad_request; P.Unsupported_version; P.Unknown_scenario; P.Unknown_session;
       P.Session_exists; P.Too_many_sessions; P.Bad_seq; P.Bad_volume;
       P.Over_capacity; P.Horizon_exhausted; P.Injected; P.Internal |]
  in
  Util.Prng.pick rng all

let gen_response rng : P.response =
  match Util.Prng.int rng 9 with
  | 0 -> P.Welcome { version = Util.Prng.int rng 10 }
  | 1 ->
      P.Session
        { id = gen_id rng; alg = (if Util.Prng.bool rng then "a" else "b");
          types = 1 + Util.Prng.int rng 5; fed = Util.Prng.int rng 100 }
  | 2 ->
      P.Decisions
        { id = gen_id rng; seq = Util.Prng.int rng 1000;
          configs = Array.init (Util.Prng.int rng 5) (fun _ -> gen_config rng) }
  | 3 ->
      P.Snapshot_state
        { id = gen_id rng;
          state =
            Util.Sexp.List
              [ Util.Sexp.Atom "state"; Util.Sexp.Atom (string_of_int (Util.Prng.int rng 99)) ] }
  | 4 ->
      P.Stats_reply
        { accepts = Util.Prng.int rng 100; sessions = Util.Prng.int rng 100;
          requests = Util.Prng.int rng 1000; decisions = Util.Prng.int rng 1000;
          batches = Util.Prng.int rng 100; p50_us = gen_float rng; p99_us = gen_float rng }
  | 5 -> P.Closed { id = gen_id rng }
  | 6 -> P.Bye
  | 7 ->
      (* scrape bodies carry newlines, quotes and high bytes *)
      P.Metrics_reply { body = gen_string rng ^ "\n# TYPE x counter\nx 1\n" }
  | _ -> P.Error { code = gen_error_code rng; msg = gen_string rng;
                   fed = (if Util.Prng.bool rng then Some (Util.Prng.int rng 100) else None) }

(* Feed a frame to a decoder in random-sized chunks. *)
let feed_chunked rng dec s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let k = 1 + Util.Prng.int rng (n - !i) in
    Codec.feed_string dec (String.sub s !i k);
    i := !i + k
  done

(* --- reference wire codec ----------------------------------------------

   The parser, printer, framer and Buffer-backed decoder the serving
   path used before its codec stopped allocating per character and per
   frame, kept verbatim as oracles: the codec must produce their bytes,
   trees, frames and error messages exactly. *)

module Reference = struct
  module S = Util.Sexp

  type state = { input : string; mutable pos : int }

  let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

  let advance st = st.pos <- st.pos + 1

  let rec skip_blank st =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        skip_blank st
    | Some ';' ->
        let rec eat () =
          match peek st with
          | Some '\n' | None -> ()
          | Some _ ->
              advance st;
              eat ()
        in
        eat ();
        skip_blank st
    | Some _ | None -> ()

  let error st msg = Error (Printf.sprintf "%s at offset %d" msg st.pos)

  let rec parse_one st =
    skip_blank st;
    match peek st with
    | None -> error st "unexpected end of input"
    | Some '(' ->
        advance st;
        let rec items acc =
          skip_blank st;
          match peek st with
          | Some ')' ->
              advance st;
              Ok (S.List (List.rev acc))
          | None -> error st "unclosed parenthesis"
          | Some _ -> (
              match parse_one st with
              | Ok item -> items (item :: acc)
              | Error _ as e -> e)
        in
        items []
    | Some ')' -> error st "unexpected ')'"
    | Some _ ->
        let start = st.pos in
        let rec eat () =
          match peek st with
          | Some (' ' | '\t' | '\n' | '\r' | '(' | ')' | ';') | None -> ()
          | Some _ ->
              advance st;
              eat ()
        in
        eat ();
        Ok (S.Atom (String.sub st.input start (st.pos - start)))

  let parse input =
    let st = { input; pos = 0 } in
    match parse_one st with
    | Error _ as e -> e
    | Ok v ->
        skip_blank st;
        if st.pos = String.length input then Ok v
        else error st "trailing content after expression"

  let parse_many input =
    let st = { input; pos = 0 } in
    let rec go acc =
      skip_blank st;
      if st.pos = String.length input then Ok (List.rev acc)
      else
        match parse_one st with
        | Ok v -> go (v :: acc)
        | Error m -> Error m
    in
    go []

  let rec to_string = function
    | S.Atom a -> a
    | S.List items -> "(" ^ String.concat " " (List.map to_string items) ^ ")"

  let encode payload =
    let body = to_string payload in
    Printf.sprintf "%d %s\n" (String.length body) body

  type decoder = {
    mutable buf : Buffer.t;
    mutable start : int;
    mutable poisoned : string option;
    max_frame_bytes : int;
  }

  let decoder ?(max_frame_bytes = Codec.default_max_frame_bytes) () =
    { buf = Buffer.create 4096; start = 0; poisoned = None; max_frame_bytes }

  let feed_string d s = Buffer.add_string d.buf s

  let compact d =
    if d.start > 65536 && d.start * 2 > Buffer.length d.buf then begin
      let rest = Buffer.sub d.buf d.start (Buffer.length d.buf - d.start) in
      let fresh = Buffer.create (max 4096 (String.length rest)) in
      Buffer.add_string fresh rest;
      d.buf <- fresh;
      d.start <- 0
    end

  let poison d msg =
    d.poisoned <- Some msg;
    Error msg

  let max_prefix_digits = 12

  let next d =
    match d.poisoned with
    | Some msg -> Error msg
    | None -> (
        let len = Buffer.length d.buf in
        let rec scan_sp i =
          if i >= len then None
          else if Buffer.nth d.buf i = ' ' then Some i
          else if i - d.start >= max_prefix_digits then Some (-1)
          else scan_sp (i + 1)
        in
        match scan_sp d.start with
        | None -> Ok None
        | Some (-1) -> poison d "frame length prefix too long (corrupt stream)"
        | Some sp -> (
            let digits = Buffer.sub d.buf d.start (sp - d.start) in
            let plausible =
              digits <> "" && String.for_all (fun c -> c >= '0' && c <= '9') digits
            in
            match (if plausible then int_of_string_opt digits else None) with
            | None -> poison d (Printf.sprintf "bad frame length prefix %S" digits)
            | Some n when n > d.max_frame_bytes ->
                poison d
                  (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
                     d.max_frame_bytes)
            | Some n ->
                let frame_end = sp + 1 + n in
                if len < frame_end + 1 then Ok None
                else if Buffer.nth d.buf frame_end <> '\n' then
                  poison d "missing frame terminator (corrupt stream)"
                else begin
                  let body = Buffer.sub d.buf (sp + 1) n in
                  d.start <- frame_end + 1;
                  compact d;
                  match parse body with
                  | Ok payload -> Ok (Some payload)
                  | Error m -> poison d (Printf.sprintf "unparseable frame payload: %s" m)
                end))
end

(* Random trees: atoms of any bytes (the printer emits them verbatim),
   empty lists, and nesting up to depth 4. *)
let rec gen_tree rng depth =
  if depth = 0 || Util.Prng.int rng 3 = 0 then Util.Sexp.Atom (gen_string rng)
  else
    Util.Sexp.List (List.init (Util.Prng.int rng 5) (fun _ -> gen_tree rng (depth - 1)))

(* Random parser input, weighted towards the lexer's delimiters:
   blanks, comments, balanced and unbalanced parens. *)
let gen_sexp_text rng =
  let pieces =
    [| "("; ")"; " "; "\t"; "\n"; "\r"; ";"; "; note\n"; "a"; "bc"; "12"; "0x1p-3"; "%20";
       "(x 1)"; "()"; "\x00"; "\xff" |]
  in
  String.concat "" (List.init (Util.Prng.int rng 24) (fun _ -> Util.Prng.pick rng pieces))

(* Every request and response kind, one of each, plus random draws. *)
let all_kinds rng =
  let reqs =
    [ P.Hello { version = 1 };
      P.Create_session { id = "a"; scenario = "cpu gpu;(x)"; max_horizon = Some 9; alg = Some "b" };
      P.Feed { id = "s1"; seq = 3; loads = [| 1.5; -0.; infinity; nan |] };
      P.Query_snapshot { id = "s1" }; P.Stats; P.Metrics; P.Close { id = "s1" }; P.Shutdown ]
  in
  let resps =
    [ P.Welcome { version = 1 };
      P.Session { id = "s"; alg = "a"; types = 2; fed = 7 };
      P.Decisions { id = "s"; seq = 4; configs = [| [| 1; 2 |]; [||] |] };
      P.Snapshot_state { id = "s"; state = gen_tree rng 4 };
      P.Stats_reply
        { accepts = 1; sessions = 2; requests = 3; decisions = 4; batches = 5;
          p50_us = 0.25; p99_us = nan };
      P.Metrics_reply { body = "x 1\n% (y)" }; P.Closed { id = "s" }; P.Bye;
      P.Error { code = P.Bad_seq; msg = "gap"; fed = Some 3 } ]
  in
  List.map P.request_to_sexp (reqs @ [ gen_request rng ])
  @ List.map P.response_to_sexp (resps @ [ gen_response rng ])

let prop_printer_matches_reference seed =
  let rng = Util.Prng.create seed in
  List.for_all
    (fun t ->
      Util.Sexp.to_string t = Reference.to_string t
      && Codec.encode t = Reference.encode t)
    (gen_tree rng 4 :: all_kinds rng)

let prop_parser_matches_reference seed =
  let rng = Util.Prng.create seed in
  let text = gen_sexp_text rng in
  Util.Sexp.parse text = Reference.parse text
  && Util.Sexp.parse_many text = Reference.parse_many text

(* One wire stream of at least 2 MiB, cut into random reads from 1 byte
   up: mostly protocol frames, some frames larger than the decoder's
   initial 4 KiB, and, on some seeds, a corrupt tail.  The decoder must
   hand out the reference decoder's frames and poison results, and its
   buffer must stay within twice the largest frame plus read. *)
let prop_decoder_matches_reference seed =
  let rng = Util.Prng.create seed in
  let frames = ref [] and bytes = ref 0 in
  while !bytes < 2 * 1024 * 1024 do
    let t =
      match Util.Prng.int rng 10 with
      | 0 ->
          P.response_to_sexp
            (P.Metrics_reply { body = String.make (4096 + Util.Prng.int rng 30_000) 'm' })
      | 1 | 2 | 3 -> P.response_to_sexp (gen_response rng)
      | _ -> P.request_to_sexp (gen_request rng)
    in
    let f = Reference.encode t in
    frames := f :: !frames;
    bytes := !bytes + String.length f
  done;
  let largest = List.fold_left (fun m f -> max m (String.length f)) 0 !frames in
  let tail =
    match Util.Prng.int rng 6 with
    | 0 -> "12x (hi)\n"
    | 1 -> "5 (hi)X5 (hi)\n"
    | 2 -> "3 (()\n"
    | 3 -> "1234567890123 (hi)\n"
    | 4 -> "99999999999 (hi)\n"
    | _ -> ""
  in
  let wire = String.concat "" (List.rev !frames) ^ tail in
  let dec = Codec.decoder () and ref_dec = Reference.decoder () in
  let rec drain () =
    let a = Codec.next dec and b = Reference.next ref_dec in
    if a <> b then false
    else match a with Ok (Some _) -> drain () | Ok None -> true | Error _ -> Codec.next dec = b
  in
  let n = String.length wire in
  let ok = ref true and off = ref 0 and widest_read = ref 0 in
  while !ok && !off < n do
    let most = match Util.Prng.int rng 3 with 0 -> 8 | 1 -> 4096 | _ -> 65536 in
    let k = min (n - !off) (1 + Util.Prng.int rng most) in
    widest_read := max !widest_read k;
    let chunk = String.sub wire !off k in
    Codec.feed_string dec chunk;
    Reference.feed_string ref_dec chunk;
    off := !off + k;
    ok := drain ()
          && Codec.buffer_bytes dec <= max 4096 (2 * (largest + !widest_read))
  done;
  !ok

(* --- properties ----------------------------------------------------- *)

let prop_quote_roundtrip seed =
  let rng = Util.Prng.create seed in
  let n = Util.Prng.int rng 32 in
  let s = String.init n (fun _ -> Char.chr (Util.Prng.int rng 256)) in
  P.unquote (P.quote s) = s

let prop_request_roundtrip seed =
  let rng = Util.Prng.create seed in
  let req = gen_request rng in
  let dec = Codec.decoder () in
  feed_chunked rng dec (Codec.encode (P.request_to_sexp req));
  match Codec.next dec with
  | Ok (Some sexp) -> P.request_of_sexp sexp = Ok req && Codec.next dec = Ok None
  | Ok None | Error _ -> false

let prop_response_roundtrip seed =
  let rng = Util.Prng.create seed in
  let resp = gen_response rng in
  let dec = Codec.decoder () in
  feed_chunked rng dec (Codec.encode (P.response_to_sexp resp));
  match Codec.next dec with
  | Ok (Some sexp) -> P.response_of_sexp sexp = Ok resp && Codec.next dec = Ok None
  | Ok None | Error _ -> false

let prop_pipelined_frames seed =
  let rng = Util.Prng.create seed in
  let reqs = List.init (1 + Util.Prng.int rng 10) (fun _ -> gen_request rng) in
  let wire =
    String.concat "" (List.map (fun r -> Codec.encode (P.request_to_sexp r)) reqs)
  in
  let dec = Codec.decoder () in
  feed_chunked rng dec wire;
  let rec pull acc =
    match Codec.next dec with
    | Ok (Some sexp) -> (
        match P.request_of_sexp sexp with
        | Ok r -> pull (r :: acc)
        | Error _ -> None)
    | Ok None -> Some (List.rev acc)
    | Error _ -> None
  in
  pull [] = Some reqs

(* --- codec defensiveness -------------------------------------------- *)

let test_codec_rejects_oversized () =
  let dec = Codec.decoder ~max_frame_bytes:64 () in
  (* The declared length alone must poison the stream — before any
     payload arrives, so the guard fires before allocation. *)
  Codec.feed_string dec "999999 ";
  (match Codec.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame accepted");
  (* poisoned: even a now-valid frame is rejected *)
  Codec.feed_string dec "5 (hi)\n";
  checkb "stays poisoned" true (Result.is_error (Codec.next dec))

let test_codec_rejects_garbage () =
  List.iter
    (fun garbage ->
      let dec = Codec.decoder () in
      Codec.feed_string dec garbage;
      checkb (Printf.sprintf "rejects %S" garbage) true
        (Result.is_error (Codec.next dec)))
    [ "nonsense (hi)\n"; "-5 x\n"; "12345678901234 (hi)\n"; "4 (hi)X"; "2 ))\n" ]

let test_codec_incomplete_is_not_error () =
  let dec = Codec.decoder () in
  Codec.feed_string dec "9 (hel";
  checkb "incomplete frame pends" true (Codec.next dec = Ok None);
  Codec.feed_string dec "lo 1)\n";
  checkb "completes" true
    (match Codec.next dec with Ok (Some _) -> true | _ -> false)

(* --- streaming typed errors (regression for the raising path) ------- *)

let test_streaming_feed_result_errors () =
  let types = [| st ~count:2 ~switching_cost:1. ~cap:1. () |] in
  let fns = [| Convex.Fn.const 1. |] in
  let s = Online.Streaming.alg_a ~max_horizon:2 ~types ~fns () in
  (match Online.Streaming.feed_result s (-1.) with
  | Error (Online.Streaming.Bad_volume v) -> checkb "bad volume" true (v = -1.)
  | _ -> Alcotest.fail "negative volume not typed");
  (match Online.Streaming.feed_result s nan with
  | Error (Online.Streaming.Bad_volume _) -> ()
  | _ -> Alcotest.fail "nan volume not typed");
  (match Online.Streaming.feed_result s 5. with
  | Error (Online.Streaming.Over_capacity { volume; capacity }) ->
      checkb "over capacity carries both" true (volume = 5. && capacity = 2.)
  | _ -> Alcotest.fail "over-capacity not typed");
  (* the error path must leave the session untouched *)
  checki "nothing fed after errors" 0 (Online.Streaming.fed s);
  checkb "slot 0 ok" true (Result.is_ok (Online.Streaming.feed_result s 1.));
  checkb "slot 1 ok" true (Result.is_ok (Online.Streaming.feed_result s 1.));
  (match Online.Streaming.feed_result s 1. with
  | Error (Online.Streaming.Horizon_exhausted { fed; cap }) ->
      checkb "cap carried" true (fed = 2 && cap = 2)
  | _ -> Alcotest.fail "horizon exhaustion not typed");
  checki "cap errors leave clock alone" 2 (Online.Streaming.fed s);
  (* the raising wrapper still raises, with the rendered message *)
  checkb "feed raises Invalid_argument" true
    (try ignore (Online.Streaming.feed s 1.); false
     with Invalid_argument m -> String.length m > 0)

(* --- snapshot size guard -------------------------------------------- *)

let test_snapshot_load_size_guard () =
  let dir = Filename.temp_file "rs-snap" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let path = Filename.concat dir "big.snap" in
      let payload =
        Util.Sexp.List
          (Util.Sexp.Atom "blob"
          :: List.init 2000 (fun i -> Util.Sexp.Atom (string_of_int i)))
      in
      (match Util.Snapshot.save ~path ~kind:"guard-test" payload with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Util.Snapshot.error_to_string e));
      let size = (Unix.stat path).Unix.st_size in
      checkb "fixture is oversized for the guard" true (size > 1024);
      (match Util.Snapshot.load ~kind:"guard-test" ~max_bytes:1024 ~path () with
      | Error (Util.Snapshot.Too_large { limit; actual }) ->
          checki "limit echoed" 1024 limit;
          checki "actual is the file size" size actual
      | Error e -> Alcotest.fail ("wrong error: " ^ Util.Snapshot.error_to_string e)
      | Ok _ -> Alcotest.fail "oversized snapshot accepted");
      (* the same file loads fine under the default limit *)
      match Util.Snapshot.load ~kind:"guard-test" ~path () with
      | Ok p -> checkb "payload intact" true (p = payload)
      | Error e -> Alcotest.fail (Util.Snapshot.error_to_string e))

(* --- sessions -------------------------------------------------------- *)

let test_session_idempotent_feed () =
  let spec = { Session.scenario = "cpu-gpu"; max_horizon = None; alg = None } in
  let s =
    match Session.create ~id:"s1" spec with
    | Ok s -> s
    | Error (_, m) -> Alcotest.fail m
  in
  let loads = Array.init 10 (fun i -> 1. +. float_of_int (i mod 3)) in
  let first =
    match Session.feed s ~seq:0 loads with
    | Ok xs -> xs
    | Error (_, m) -> Alcotest.fail m
  in
  checki "10 slots fed" 10 (Session.fed s);
  (* full overlap: answered from history, bit-identical, no stepping *)
  (match Session.feed s ~seq:0 loads with
  | Ok again ->
      checkb "replay identical" true (Array.for_all2 Model.Config.equal first again);
      checki "no extra slots" 10 (Session.fed s)
  | Error (_, m) -> Alcotest.fail m);
  (* a gap is a typed error *)
  (match Session.feed s ~seq:12 [| 1. |] with
  | Error (P.Bad_seq, _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "gap not rejected");
  (* partial overlap continues where the history ends *)
  match Session.feed s ~seq:8 [| 1.; 2.; 1.; 1. |] with
  | Ok xs ->
      checki "stepped past history" 12 (Session.fed s);
      checkb "overlap slots replayed" true
        (Model.Config.equal xs.(0) first.(8) && Model.Config.equal xs.(1) first.(9))
  | Error (_, m) -> Alcotest.fail m

let prop_session_save_restore seed =
  let rng = Util.Prng.create seed in
  let scenario = Util.Prng.pick rng [| "cpu-gpu"; "three-tier"; "time-varying" |] in
  let spec = { Session.scenario; max_horizon = None; alg = None } in
  let a =
    match Session.create ~id:"p" spec with Ok s -> s | Error (_, m) -> failwith m
  in
  let n = 1 + Util.Prng.int rng 12 in
  let loads = Array.init n (fun _ -> Util.Prng.float rng 2.) in
  (match Session.feed a ~seq:0 loads with Ok _ -> () | Error (_, m) -> failwith m);
  let b =
    match Session.of_sexp (Session.save a) with Ok s -> s | Error m -> failwith m
  in
  let more = Array.init 5 (fun _ -> Util.Prng.float rng 2.) in
  match (Session.feed a ~seq:n more, Session.feed b ~seq:n more) with
  | Ok xa, Ok xb -> Array.for_all2 Model.Config.equal xa xb
  | _ -> false

(* --- daemon ---------------------------------------------------------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun x -> rm_rf (Filename.concat path x)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_daemon ?(cfg = Daemon.default_config) f =
  let dir = Filename.temp_file "rs-daemon" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let mk ?resume name cfg =
        match
          Daemon.create ?resume
            { cfg with Daemon.unix_path = Some (Filename.concat dir name) }
        with
        | Ok d -> d
        | Error m -> Alcotest.fail m
      in
      f dir mk cfg)

let expect_decisions = function
  | P.Decisions { configs; _ } -> configs
  | P.Error { msg; _ } -> Alcotest.fail ("unexpected error reply: " ^ msg)
  | _ -> Alcotest.fail "expected decisions"

let test_daemon_request_semantics () =
  with_daemon (fun _dir mk cfg ->
      let d = mk "a.sock" cfg in
      (match Daemon.handle d (P.Hello { version = P.version }) with
      | P.Welcome { version } -> checki "version echoed" P.version version
      | _ -> Alcotest.fail "hello failed");
      (match Daemon.handle d (P.Hello { version = 99 }) with
      | P.Error { code = P.Unsupported_version; _ } -> ()
      | _ -> Alcotest.fail "bad version accepted");
      (match
         Daemon.handle d
           (P.Create_session { id = "s1"; scenario = "cpu-gpu"; max_horizon = None; alg = None })
       with
      | P.Session { alg; fed; _ } ->
          checks "cpu-gpu is time-independent" "a" alg;
          checki "fresh session" 0 fed
      | _ -> Alcotest.fail "create failed");
      (match
         Daemon.handle d
           (P.Create_session { id = "s1"; scenario = "cpu-gpu"; max_horizon = None; alg = None })
       with
      | P.Session { fed = 0; _ } -> ()
      | _ -> Alcotest.fail "same-spec create should attach");
      (match
         Daemon.handle d
           (P.Create_session { id = "s1"; scenario = "three-tier"; max_horizon = None; alg = None })
       with
      | P.Error { code = P.Session_exists; _ } -> ()
      | _ -> Alcotest.fail "spec mismatch accepted");
      (match
         Daemon.handle d
           (P.Create_session { id = "s2"; scenario = "nope"; max_horizon = None; alg = None })
       with
      | P.Error { code = P.Unknown_scenario; _ } -> ()
      | _ -> Alcotest.fail "unknown scenario accepted");
      (match Daemon.handle d (P.Feed { id = "ghost"; seq = 0; loads = [| 1. |] }) with
      | P.Error { code = P.Unknown_session; _ } -> ()
      | _ -> Alcotest.fail "unknown session accepted");
      let xs =
        expect_decisions
          (Daemon.handle d (P.Feed { id = "s1"; seq = 0; loads = [| 1.; 2.; 1. |] }))
      in
      checki "three decisions" 3 (Array.length xs);
      checki "three slots stepped" 3 (Daemon.stepped_slots d);
      (* a feed past the processed count is a typed gap error carrying
         the resync point *)
      (match Daemon.handle d (P.Feed { id = "s1"; seq = 5; loads = [| 1. |] }) with
      | P.Error { code = P.Bad_seq; fed = Some 3; _ } -> ()
      | _ -> Alcotest.fail "gap not rejected with resync point");
      (match Daemon.handle d (P.Close { id = "s1" }) with
      | P.Closed _ -> checki "table empty" 0 (Daemon.session_count d)
      | _ -> Alcotest.fail "close failed");
      match Daemon.handle d (P.Query_snapshot { id = "s1" }) with
      | P.Error { code = P.Unknown_session; _ } -> ()
      | _ -> Alcotest.fail "closed session still answers")

let test_daemon_step_fault_degrades () =
  with_daemon (fun _dir mk cfg ->
      let d = mk "b.sock" cfg in
      ignore
        (Daemon.handle d
           (P.Create_session { id = "s"; scenario = "cpu-gpu"; max_horizon = None; alg = None }));
      ignore
        (expect_decisions (Daemon.handle d (P.Feed { id = "s"; seq = 0; loads = [| 1. |] })));
      Util.Faultinj.arm [ ("server.step", Util.Faultinj.Nth 1) ];
      Fun.protect ~finally:Util.Faultinj.disarm (fun () ->
          (match Daemon.handle d (P.Feed { id = "s"; seq = 1; loads = [| 1. |] }) with
          | P.Error { code = P.Injected; fed = Some 1; _ } -> ()
          | _ -> Alcotest.fail "fault not surfaced as injected");
          (* the session survived untouched; the retry succeeds *)
          let xs =
            expect_decisions
              (Daemon.handle d (P.Feed { id = "s"; seq = 1; loads = [| 1. |] }))
          in
          checki "retry stepped" 1 (Array.length xs);
          checki "two slots total" 2 (Daemon.stepped_slots d)))

(* Crash/resume with several concurrent sessions on both algorithms:
   feed part of each trace through a log-mode daemon, throw it away
   after its last round (as after kill -9: no graceful-stop cement),
   recover a fresh one from the store, feed the rest — and require every
   decision (replayed and newly stepped) to match an uninterrupted
   oracle. *)
let test_daemon_checkpoint_resume_multisession () =
  with_daemon (fun dir mk cfg ->
      let cfg = { cfg with Daemon.log_dir = Some (Filename.concat dir "store") } in
      let scenarios =
        [ ("m1", "cpu-gpu"); ("m2", "three-tier"); ("m3", "time-varying");
          ("m4", "cpu-gpu") ]
      in
      let slots = 14 and cut = 9 in
      let loads name =
        let rng = Util.Prng.create (Hashtbl.hash name) in
        Array.init slots (fun _ -> Util.Prng.float rng 1.5)
      in
      let d1 = mk "c1.sock" cfg in
      List.iter
        (fun (id, scenario) ->
          (match Daemon.handle d1 (P.Create_session { id; scenario; max_horizon = None; alg = None }) with
          | P.Session _ -> ()
          | _ -> Alcotest.fail ("create " ^ id));
          ignore
            (expect_decisions
               (Daemon.handle d1
                  (P.Feed { id; seq = 0; loads = Array.sub (loads id) 0 cut }))))
        scenarios;
      (* resume in a fresh daemon; d1 is abandoned *)
      let d2 = mk ~resume:true "c2.sock" cfg in
      checki "all sessions resumed" (List.length scenarios) (Daemon.session_count d2);
      List.iter
        (fun (id, scenario) ->
          let all = loads id in
          (* re-attach reports the processed prefix *)
          (match Daemon.handle d2 (P.Create_session { id; scenario; max_horizon = None; alg = None }) with
          | P.Session { fed; _ } -> checki (id ^ " resumed slots") cut fed
          | _ -> Alcotest.fail ("re-attach " ^ id));
          (* idempotent re-feed of the whole trace: prefix replayed,
             suffix stepped on the restored state *)
          let resumed =
            expect_decisions (Daemon.handle d2 (P.Feed { id; seq = 0; loads = all }))
          in
          let spec = { Session.scenario; max_horizon = None; alg = None } in
          let oracle =
            match Session.create ~id spec with
            | Ok s -> (
                match Session.feed s ~seq:0 all with
                | Ok xs -> xs
                | Error (_, m) -> Alcotest.fail m)
            | Error (_, m) -> Alcotest.fail m
          in
          checkb (id ^ " bit-identical to oracle") true
            (Array.for_all2 Model.Config.equal resumed oracle))
        scenarios)

(* One running daemon, two client connections: one over the Unix
   socket, one over loopback TCP, two cpu-gpu sessions each.  Both
   connections pipeline every 4-slot feed before reading a reply, so a
   daemon round can serve both at once; every decision must equal a
   sequential Session fed the same loads.  With [domains > 1] the daemon
   steps each round's sessions on a pool of that many domains, and every
   round that steps two or more sessions runs a pool job. *)
let test_daemon_two_connections ~domains () =
  let with_pool f =
    if domains = 1 then f None
    else Util.Pool.with_pool ~name:"daemon" ~domains (fun pool -> f (Some pool))
  in
  let count name = Obs.Counter.value (Option.get (Obs.Counter.find name)) in
  let batches0 = count "server.batches" and stepped0 = count "server.batch_size" in
  let jobs0 = count "pool.jobs" in
  with_pool @@ fun pool ->
  with_daemon (fun dir mk cfg ->
      let port = Server.Spawn.pick_free_port () in
      let d = mk "two.sock" { cfg with Daemon.tcp_port = Some port; pool } in
      let runner = Thread.create Daemon.run d in
      Fun.protect ~finally:(fun () -> Daemon.request_stop d; Thread.join runner)
      @@ fun () ->
      let ok = function Ok v -> v | Error m -> Alcotest.fail m in
      let slots = 12 and batch = 4 in
      let spec = { Session.scenario = "cpu-gpu"; max_horizon = None; alg = None } in
      let session id =
        let rng = Util.Prng.create (Hashtbl.hash id) in
        let loads = Array.init slots (fun _ -> Util.Prng.float rng 1.5) in
        let oracle =
          match Result.bind (Session.create ~id spec) (fun s -> Session.feed s ~seq:0 loads) with
          | Ok xs -> xs
          | Error (_, m) -> Alcotest.fail m
        in
        (id, loads, oracle)
      in
      let conns =
        List.map
          (fun (name, target) ->
            let c = ok (Server.Client.connect target) in
            ok (Server.Client.hello c);
            (c, [ session (name ^ "-1"); session (name ^ "-2") ]))
          [ ("unix", Server.Client.Unix_path (Filename.concat dir "two.sock"));
            ("tcp", Server.Client.Tcp port) ]
      in
      (* a connection's feed frames in send order: round-robin over its sessions *)
      let frames sessions =
        List.concat_map (fun k -> List.map (fun s -> (s, k * batch)) sessions)
          (List.init (slots / batch) Fun.id)
      in
      List.iter
        (fun (c, sessions) ->
          List.iter
            (fun (id, _, _) ->
              let create = P.Create_session { id; scenario = "cpu-gpu"; max_horizon = None; alg = None } in
              match ok (Server.Client.request c create) with
              | P.Session _ -> ()
              | _ -> Alcotest.fail ("create " ^ id))
            sessions)
        conns;
      List.iter
        (fun (c, sessions) ->
          List.iter
            (fun ((id, loads, _), seq) ->
              ok (Server.Client.send c (P.Feed { id; seq; loads = Array.sub loads seq batch })))
            (frames sessions))
        conns;
      List.iter
        (fun (c, sessions) ->
          List.iter
            (fun ((id, _, oracle), seq) ->
              match ok (Server.Client.recv c) with
              | P.Decisions { id = rid; seq = rseq; configs } when rid = id && rseq = seq ->
                  checkb (Printf.sprintf "%s@%d matches the sequential session" id seq) true
                    (Array.for_all2 Model.Config.equal configs (Array.sub oracle seq batch))
              | _ -> Alcotest.fail (Printf.sprintf "feed %s@%d" id seq))
            (frames sessions);
          Server.Client.close c)
        conns);
  let multi_session_rounds =
    count "server.batch_size" - stepped0 > count "server.batches" - batches0
  in
  if domains > 1 && multi_session_rounds then
    checkb "multi-session rounds ran on the pool" true (count "pool.jobs" > jobs0)

(* Metrics scrape + shadow oracle, through the in-process handle path
   with a synchronous audit so every number is deterministic. *)
let test_daemon_metrics_and_audit () =
  with_daemon (fun _dir mk cfg ->
      let cfg =
        { cfg with
          Daemon.audit_every = Some 4; audit_sample = 2; audit_sync = true }
      in
      let d = mk "m.sock" cfg in
      List.iter
        (fun (id, scenario) ->
          (match Daemon.handle d (P.Create_session { id; scenario; max_horizon = None; alg = None }) with
          | P.Session _ -> ()
          | _ -> Alcotest.fail ("create " ^ id));
          let loads = Array.init 12 (fun i -> 0.5 +. float_of_int (i mod 4)) in
          ignore (expect_decisions (Daemon.handle d (P.Feed { id; seq = 0; loads }))))
        [ ("a1", "cpu-gpu"); ("a2", "three-tier") ];
      (* the sync audit ran inside the feed rounds *)
      let audit = match Daemon.audit d with Some a -> a | None -> Alcotest.fail "no audit" in
      checkb "audit ran" true (Server.Audit.runs audit >= 1);
      checkb "sessions audited" true (Server.Audit.audited audit >= 1);
      let ratio = Server.Audit.last_regret_ratio audit in
      checkb "empirical competitive ratio >= 1" true (ratio >= 1.0);
      checkb "ratio finite" true (Float.is_finite ratio);
      let body =
        match Daemon.handle d P.Metrics with
        | P.Metrics_reply { body } -> body
        | _ -> Alcotest.fail "metrics request failed"
      in
      let samples = Obs.Metrics_export.parse_prometheus body in
      checkb "scrape parses to samples" true (samples <> []);
      (* no duplicate series: (name, labels) unique *)
      let keys =
        List.map
          (fun (s : Obs.Metrics_export.sample) -> (s.s_name, s.s_labels))
          samples
      in
      checkb "no duplicate series" true
        (List.length keys = List.length (List.sort_uniq compare keys));
      let find name =
        List.find_map
          (fun (s : Obs.Metrics_export.sample) ->
            if s.s_name = name && s.s_labels = [] then Some s.s_value else None)
          samples
      in
      checkb "live session gauge" true (find "server_sessions" = Some 2.);
      (match (find "gc_heap_words", find "gc_top_heap_words") with
      | Some heap, Some top ->
          checkb "heap gauge positive" true (heap > 0.);
          checkb "top heap at least the heap" true (top >= heap)
      | _ -> Alcotest.fail "gc heap gauges missing");
      (* garbage since start: words and the collections they cost *)
      List.iter
        (fun name ->
          match find name with
          | Some v -> checkb (name ^ " non-negative") true (v >= 0.)
          | None -> Alcotest.fail (name ^ " missing"))
        [ "gc_minor_words"; "gc_promoted_words"; "gc_major_words"; "gc_minor_collections";
          "gc_major_collections" ];
      checkb "minor words counted" true
        (match find "gc_minor_words" with Some v -> v > 0. | None -> false);
      (match find "audit_regret_ratio" with
      | Some v -> checkb "scraped ratio matches audit" true (v = ratio)
      | None -> Alcotest.fail "audit_regret_ratio missing");
      checkb "latency histogram buckets present" true
        (List.exists
           (fun (s : Obs.Metrics_export.sample) ->
             s.s_name = "server_request_latency_us_bucket")
           samples);
      (* the handle path skips the socket-side request timer, but the
         batch step timer runs for every round *)
      checkb "batch histogram count positive" true
        (match find "server_batch_duration_us_count" with
        | Some v -> v > 0.
        | None -> false);
      (* counters are monotone across scrapes *)
      let requests_1 = find "server_requests" in
      let body2 =
        match Daemon.handle d P.Metrics with
        | P.Metrics_reply { body } -> body
        | _ -> Alcotest.fail "second scrape failed"
      in
      let samples2 = Obs.Metrics_export.parse_prometheus body2 in
      let find2 name =
        List.find_map
          (fun (s : Obs.Metrics_export.sample) ->
            if s.s_name = name && s.s_labels = [] then Some s.s_value else None)
          samples2
      in
      (match (requests_1, find2 "server_requests") with
      | Some a, Some b -> checkb "requests monotone" true (b > a)
      | _ -> Alcotest.fail "server_requests missing");
      (match (find "gc_minor_words", find2 "gc_minor_words") with
      | Some a, Some b -> checkb "minor words grow between scrapes" true (b > a)
      | _ -> Alcotest.fail "gc_minor_words missing");
      (* the monitor digests the same body into the same numbers *)
      match Server.Monitor.parse body2 with
      | Error m -> Alcotest.fail m
      | Ok snap ->
          let row = Server.Monitor.row_of snap in
          checkb "monitor sessions" true (row.Server.Monitor.sessions = 2.);
          checkb "monitor ratio" true
            (row.Server.Monitor.regret_ratio = Some ratio);
          checkb "monitor reconstructs batch quantile" true
            (match row.Server.Monitor.p50_batch_us with
            | Some v -> Float.is_finite v && v > 0.
            | None -> false);
          checkb "scraped audit failures" true (find2 "audit_failures" = Some 0.);
          checkb "monitor audit failures" true (row.Server.Monitor.audit_failures = 0.))

(* A replay that raises is counted, and the count reaches the scrape
   and the monitor row that scenario legs check. *)
let test_audit_failures_scraped () =
  with_daemon (fun _dir mk cfg ->
      let cfg =
        { cfg with Daemon.audit_every = Some 1; audit_sample = 1; audit_sync = true }
      in
      let d = mk "f.sock" cfg in
      (match
         Daemon.handle d (P.Create_session { id = "s"; scenario = "cpu-gpu"; max_horizon = None; alg = None })
       with
      | P.Session _ -> ()
      | _ -> Alcotest.fail "create");
      Util.Faultinj.arm [ ("audit.replay", Util.Faultinj.Nth 1) ];
      Fun.protect ~finally:Util.Faultinj.disarm (fun () ->
          List.iter
            (fun seq ->
              ignore (expect_decisions (Daemon.handle d (P.Feed { id = "s"; seq; loads = [| 1.; 2. |] }))))
            [ 0; 2 ]);
      let audit = match Daemon.audit d with Some a -> a | None -> Alcotest.fail "no audit" in
      checkb "two audit runs" true (Server.Audit.runs audit = 2);
      checkb "the second replay audited" true (Server.Audit.audited audit = 1);
      let body =
        match Daemon.handle d P.Metrics with
        | P.Metrics_reply { body } -> body
        | _ -> Alcotest.fail "metrics request failed"
      in
      match Server.Monitor.parse body with
      | Error m -> Alcotest.fail m
      | Ok snap ->
          checkb "one replay raised" true
            ((Server.Monitor.row_of snap).Server.Monitor.audit_failures = 1.))

(* The asynchronous shadow audit solves offline optima on its own
   thread while the main thread steps sessions, and must leave every
   served decision alone: each solver owns its scratch, so no fill of
   the audit's can re-aim a session's.  Three large-fleet sessions are
   fed one slot at a time for 96 slots, with an audit of all three due
   after every round; every reply must equal a sequential Session's.
   A collision needs a thread switch inside a line fill, so the case
   runs 20 times. *)
let test_async_audit_leaves_decisions_alone () =
  let slots = 96 and runs = 20 in
  let spec = { Session.scenario = "large-fleet"; max_horizon = None; alg = None } in
  let sessions =
    List.map
      (fun seed ->
        let id = Printf.sprintf "f%d" seed in
        let loads = (Sim.Scenarios.large_fleet ~horizon:slots ~seed ()).Model.Instance.load in
        let oracle =
          match Result.bind (Session.create ~id spec) (fun s -> Session.feed s ~seq:0 loads) with
          | Ok xs -> xs
          | Error (_, m) -> Alcotest.fail m
        in
        (id, loads, oracle))
      [ 1; 2; 3 ]
  in
  for run = 1 to runs do
    with_daemon (fun _dir mk cfg ->
        let cfg =
          { cfg with Daemon.audit_every = Some 1; audit_sample = 3; audit_sync = false }
        in
        let d = mk "race.sock" cfg in
        Fun.protect ~finally:(fun () -> Daemon.close d) @@ fun () ->
        let audit = match Daemon.audit d with Some a -> a | None -> Alcotest.fail "no audit" in
        List.iter
          (fun (id, _, _) ->
            match
              Daemon.handle d (P.Create_session { id; scenario = "large-fleet"; max_horizon = None; alg = None })
            with
            | P.Session _ -> ()
            | _ -> Alcotest.fail ("create " ^ id))
          sessions;
        for seq = 0 to slots - 1 do
          List.iter
            (fun (id, loads, oracle) ->
              let served =
                match Daemon.handle d (P.Feed { id; seq; loads = [| loads.(seq) |] }) with
                | P.Decisions { configs = [| x |]; _ } -> Model.Config.equal x oracle.(seq)
                | _ -> false
              in
              if not served then
                Alcotest.failf "run %d: %s@%d differs from the sequential session" run id seq)
            sessions
        done;
        let deadline = Unix.gettimeofday () +. 10. in
        while Server.Audit.audited audit = 0 && Unix.gettimeofday () < deadline do
          Thread.delay 0.01
        done;
        checkb (Printf.sprintf "run %d: sessions audited" run) true (Server.Audit.audited audit > 0))
  done

(* The audit oracle agrees with a direct offline computation. *)
let test_audit_matches_direct_computation () =
  with_daemon (fun _dir mk cfg ->
      let cfg =
        { cfg with
          Daemon.audit_every = Some 1; audit_sample = 1; audit_sync = true }
      in
      let d = mk "n.sock" cfg in
      ignore
        (Daemon.handle d
           (P.Create_session { id = "x"; scenario = "cpu-gpu"; max_horizon = None; alg = None }));
      let loads = Array.init 10 (fun i -> 1.0 +. float_of_int (i mod 3)) in
      ignore (expect_decisions (Daemon.handle d (P.Feed { id = "x"; seq = 0; loads })));
      let audit = match Daemon.audit d with Some a -> a | None -> Alcotest.fail "no audit" in
      let ratio = Server.Audit.last_regret_ratio audit in
      (* recompute both sides directly *)
      let spec = { Session.scenario = "cpu-gpu"; max_horizon = None; alg = None } in
      let s = match Session.create ~id:"ref" spec with Ok s -> s | Error (_, m) -> Alcotest.fail m in
      (match Session.feed s ~seq:0 loads with Ok _ -> () | Error (_, m) -> Alcotest.fail m);
      let inst =
        match Sim.Scenarios.by_name "cpu-gpu" with
        | Some mk ->
            let base = mk None in
            let horizon = Model.Instance.horizon base in
            let cost ~time ~typ =
              base.Model.Instance.cost ~time:(min time (horizon - 1)) ~typ
            in
            Model.Instance.make ~types:base.Model.Instance.types ~load:loads
              ~cost ()
        | None -> Alcotest.fail "scenario missing"
      in
      let online = Model.Cost.schedule inst (Session.decisions_from s ~from_:0) in
      let opt = (Offline.Dp.solve_optimal inst).Offline.Dp.cost in
      checkb "opt positive" true (opt > 0.);
      let expected = online /. opt in
      checkb "audit ratio equals direct ratio" true
        (Float.abs (ratio -. expected) <= 1e-9 *. expected))

(* [rightsizer replay] judges a recorded session exactly as the served
   decisions are judged: each row's old cost is the served replies
   priced on [Session.instance], bit for bit, and its OPT is
   [Harness.opt_cost] of that instance.  Three sessions are fed over
   several rounds through a log-mode daemon that cements mid-run: cpu-gpu
   under A, the same loads under B, and time-varying under B past its
   36-slot horizon, so the cost clamp is in play.  A [b] challenger on
   the A session must cost what the served B session did. *)
let test_replay_store_matches_served () =
  with_daemon (fun dir mk cfg ->
      let store = Filename.concat dir "store" in
      let d = mk "replay.sock" { cfg with Daemon.log_dir = Some store; cement_every = 5 } in
      let sessions =
        [ ("gpu-a", "cpu-gpu", None, 24, "a");
          ("gpu-b", "cpu-gpu", Some "b", 24, "b");
          ("tv-b", "time-varying", None, 40, "b") ]
      in
      let loads_of scenario slots =
        let rng = Util.Prng.create (Hashtbl.hash scenario) in
        Array.init slots (fun _ -> Util.Prng.float rng 1.5)
      in
      let served =
        Fun.protect ~finally:(fun () -> Daemon.close d) @@ fun () ->
        List.map
          (fun (id, scenario, alg, slots, want_alg) ->
            (match
               Daemon.handle d (P.Create_session { id; scenario; max_horizon = None; alg })
             with
            | P.Session { alg; _ } -> checks (id ^ " served alg") want_alg alg
            | _ -> Alcotest.fail ("create " ^ id));
            let loads = loads_of scenario slots in
            let replies =
              List.concat_map
                (fun seq ->
                  let n = min 7 (slots - seq) in
                  Array.to_list
                    (expect_decisions
                       (Daemon.handle d (P.Feed { id; seq; loads = Array.sub loads seq n }))))
                (List.init ((slots + 6) / 7) (fun k -> 7 * k))
            in
            let inst =
              match Session.instance ~scenario loads with
              | Some inst -> inst
              | None -> Alcotest.fail ("no instance for " ^ scenario)
            in
            (id, (inst, Model.Cost.schedule inst (Array.of_list replies))))
          sessions
      in
      let bits = Int64.bits_of_float in
      let replay ?alg ?session () =
        match Server.Audit.replay_store ?alg ?session ~dir:store () with
        | Ok r -> r
        | Error m -> Alcotest.fail m
      in
      let report = replay () in
      checki "no replay failures" 0 (List.length report.Server.Audit.failures);
      checki "one row per session" (List.length sessions)
        (List.length report.Server.Audit.rows);
      List.iter
        (fun (r : Server.Audit.row) ->
          let inst, cost = List.assoc r.r_id served in
          let opt = Online.Harness.opt_cost inst in
          checkb (r.r_id ^ " old cost = served cost") true (bits r.old_cost = bits cost);
          checkb (r.r_id ^ " new cost repeats old") true (bits r.new_cost = bits cost);
          checkb (r.r_id ^ " OPT = Harness.opt_cost") true (bits r.opt_cost = bits opt);
          checkb (r.r_id ^ " ratio = Harness.ratio") true
            (bits r.old_ratio = bits (Online.Harness.ratio ~cost ~opt)))
        report.Server.Audit.rows;
      match (replay ~alg:"b" ~session:"gpu-a" ()).Server.Audit.rows with
      | [ r ] ->
          checks "challenger alg" "b" r.Server.Audit.new_alg;
          checkb "b challenger costs what the served b session did" true
            (bits r.Server.Audit.new_cost = bits (snd (List.assoc "gpu-b" served)))
      | rows -> Alcotest.failf "expected one challenger row, got %d" (List.length rows))

(* --- garbage per decision --------------------------------------------- *)

(* The daemon's side of one served cpu-gpu decision allocates at most
   [decision_budget] minor words on average: decoding the request frame
   with a long-lived decoder, the round in [Daemon.handle] (the session
   step, its dispatch pieces and cells included) and rendering the reply
   into a long-lived output buffer, over 32 sessions fed one slot a
   frame in turn.  The client's encoding of the request is done outside
   the count.  It read about 1,364 words when the decoder copied and
   parsed through a [Buffer] and per-character options, the reply went
   through intermediate strings, and every dispatch piece was a [Fn.t]
   with boxed constants; it reads about 350 now.  Minor words are exact
   on OCaml 5, so the mean is the same in every run. *)
let decision_budget = 400.

let test_decision_allocation_budget () =
  with_daemon (fun _dir mk cfg ->
      let d = mk "g.sock" cfg in
      let ids = Array.init 32 (Printf.sprintf "s%d") in
      Array.iter
        (fun id ->
          match
            Daemon.handle d
              (P.Create_session { id; scenario = "cpu-gpu"; max_horizon = None; alg = None })
          with
          | P.Session _ -> ()
          | _ -> Alcotest.fail ("create " ^ id))
        ids;
      let seqs = Array.make 32 0 and rng = Util.Prng.create 3 in
      let dec = Codec.decoder () and out = Codec.out () in
      let serve k =
        let i = k mod 32 in
        let frame =
          Codec.encode
            (P.request_to_sexp
               (P.Feed
                  { id = ids.(i); seq = seqs.(i); loads = [| 1. +. Util.Prng.float rng 17. |] }))
        in
        seqs.(i) <- seqs.(i) + 1;
        let before = Gc.minor_words () in
        Codec.feed_string dec frame;
        let reply =
          match Codec.next dec with
          | Ok (Some sexp) -> (
              match P.request_of_sexp sexp with
              | Ok req -> Daemon.handle d req
              | Error m -> Alcotest.fail m)
          | Ok None | Error _ -> Alcotest.fail "no frame"
        in
        Codec.out_clear out;
        Codec.encode_to out (P.response_to_sexp reply);
        let words = Gc.minor_words () -. before in
        ignore (expect_decisions reply : Model.Config.t array);
        words
      in
      for k = 0 to (32 * 8) - 1 do
        ignore (serve k : float)
      done;
      let m = 32 * 64 in
      let total = ref 0. in
      for k = 0 to m - 1 do
        total := !total +. serve k
      done;
      let mean = !total /. float_of_int m in
      checkb
        (Printf.sprintf "%.1f minor words per decision <= %.0f" mean decision_budget)
        true (mean <= decision_budget))

(* Once its buffer has reached its size, a decoder makes no garbage in
   the major heap: over 10,000 frames, cut into reads of up to 4 KiB
   and some larger than its initial buffer, it allocates no word
   directly in the major heap (words promoted from the minor heap are
   left out: they are whatever a minor collection finds live). *)
let test_decoder_no_major_garbage () =
  let rng = Util.Prng.create 11 in
  let frames =
    Array.init 64 (fun i ->
        Codec.encode
          (if i mod 16 = 0 then
             P.response_to_sexp (P.Metrics_reply { body = String.make 1500 'm' })
           else P.request_to_sexp (gen_request rng)))
  in
  let wire = String.concat "" (Array.to_list frames) in
  let dec = Codec.decoder () in
  let buf = Bytes.create 4096 in
  let off = ref 0 in
  let run frames_wanted =
    let got = ref 0 in
    while !got < frames_wanted do
      let k = min (String.length wire - !off) (1 + Util.Prng.int rng 4096) in
      Bytes.blit_string wire !off buf 0 k;
      off := (!off + k) mod String.length wire;
      Codec.feed dec buf k;
      let rec pull () =
        match Codec.next dec with
        | Ok (Some _) ->
            incr got;
            pull ()
        | Ok None -> ()
        | Error m -> Alcotest.fail m
      in
      pull ()
    done
  in
  (* [Gc.counters] is exact for this domain at the call, where
     [Gc.quick_stat]'s major words are as of the last collection. *)
  let direct_major_words () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  run 2_000;
  let before = direct_major_words () in
  run 10_000;
  Alcotest.(check (float 0.)) "direct major words over 10,000 frames" 0.
    (direct_major_words () -. before)

let () =
  Alcotest.run "server"
    [ ( "codec",
        [ Alcotest.test_case "rejects oversized frames" `Quick test_codec_rejects_oversized;
          Alcotest.test_case "rejects garbage prefixes" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "incomplete frames pend" `Quick test_codec_incomplete_is_not_error;
          mk_prop ~name:"request round-trip (chunked)" prop_request_roundtrip;
          mk_prop ~name:"response round-trip (chunked)" prop_response_roundtrip;
          mk_prop ~name:"pipelined frames decode in order" prop_pipelined_frames;
          mk_prop ~name:"quote/unquote round-trip" prop_quote_roundtrip;
          mk_prop ~count:300 ~name:"printer and framer = reference bytes"
            prop_printer_matches_reference;
          mk_prop ~count:2000 ~name:"parser = reference trees and errors"
            prop_parser_matches_reference;
          mk_prop ~count:4 ~name:"decoder = reference on a 2 MiB stream"
            prop_decoder_matches_reference;
          Alcotest.test_case "decoder makes no major-heap garbage" `Quick
            test_decoder_no_major_garbage ] );
      ( "streaming-errors",
        [ Alcotest.test_case "typed feed errors" `Quick test_streaming_feed_result_errors ] );
      ( "snapshot-guard",
        [ Alcotest.test_case "load rejects oversized files" `Quick
            test_snapshot_load_size_guard ] );
      ( "session",
        [ Alcotest.test_case "idempotent feed" `Quick test_session_idempotent_feed;
          mk_prop ~count:25 ~name:"save/restore continues identically"
            prop_session_save_restore ] );
      ( "daemon",
        [ Alcotest.test_case "request semantics" `Quick test_daemon_request_semantics;
          Alcotest.test_case "step fault degrades per session" `Quick
            test_daemon_step_fault_degrades;
          Alcotest.test_case "checkpoint/resume, 4 sessions" `Quick
            test_daemon_checkpoint_resume_multisession;
          Alcotest.test_case "metrics scrape + shadow audit" `Quick
            test_daemon_metrics_and_audit;
          Alcotest.test_case "garbage per served decision" `Quick
            test_decision_allocation_budget;
          Alcotest.test_case "audit failures reach the scrape" `Quick
            test_audit_failures_scraped;
          Alcotest.test_case "audit matches direct offline replay" `Quick
            test_audit_matches_direct_computation;
          Alcotest.test_case "async audit leaves served decisions alone" `Quick
            test_async_audit_leaves_decisions_alone;
          Alcotest.test_case "replay judges the served decisions" `Quick
            test_replay_store_matches_served;
          Alcotest.test_case "two connections, unix + tcp" `Quick
            (test_daemon_two_connections ~domains:1);
          Alcotest.test_case "two connections on a 2-domain pool" `Quick
            (test_daemon_two_connections ~domains:2) ] ) ]

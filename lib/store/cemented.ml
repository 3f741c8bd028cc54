module S = Util.Sexp
module Snapshot = Util.Snapshot

let c_cements = Obs.Counter.make "store.cements"
let c_recoveries = Obs.Counter.make "store.recoveries"

let chunk_kind = "store-chunk"
let index_kind = "store-index"
let base_kind = "store-base"

let tail_path ~dir = Filename.concat dir "tail.log"
let chunk_path ~dir seq = Filename.concat dir (Printf.sprintf "chunk-%06d.store" seq)
let index_path ~dir = Filename.concat dir "index.store"
let base_path ~dir = Filename.concat dir "base.store"

type chunk_info = { seq : int; first : int; count : int }

let ( let* ) = Result.bind

(* --- offset index ------------------------------------------------------ *)

let index_to_sexp chunks =
  S.List
    (S.Atom "index"
    :: List.map
         (fun { seq; first; count } ->
           S.List
             [ S.Atom "chunk";
               S.List [ S.Atom "seq"; S.Atom (string_of_int seq) ];
               S.List [ S.Atom "first"; S.Atom (string_of_int first) ];
               S.List [ S.Atom "count"; S.Atom (string_of_int count) ] ])
         chunks)

let index_of_sexp = function
  | S.List (S.Atom "index" :: entries) ->
      let entry = function
        | S.List (S.Atom "chunk" :: fields) ->
            let* seq = Snapshot.int_of_field fields "seq" in
            let* first = Snapshot.int_of_field fields "first" in
            let* count = Snapshot.int_of_field fields "count" in
            Ok { seq; first; count }
        | _ -> Error "index: malformed chunk entry"
      in
      List.fold_left
        (fun acc e ->
          let* acc = acc in
          let* c = entry e in
          Ok (c :: acc))
        (Ok []) entries
      |> Result.map List.rev
  | _ -> Error "index: unexpected payload shape"

let read_index ~dir =
  let path = index_path ~dir in
  if not (Sys.file_exists path) then Ok []
  else
    match Snapshot.load ~kind:index_kind ~path () with
    | Error e -> Error (Snapshot.error_to_string e)
    | Ok payload -> index_of_sexp payload

(* --- cementing --------------------------------------------------------- *)

let chunk_to_sexp info records =
  S.List
    [ S.Atom "chunk";
      S.List [ S.Atom "seq"; S.Atom (string_of_int info.seq) ];
      S.List [ S.Atom "first"; S.Atom (string_of_int info.first) ];
      S.List [ S.Atom "count"; S.Atom (string_of_int info.count) ];
      S.List (S.Atom "records" :: List.map Log.record_to_sexp records) ]

let chunk_of_sexp = function
  | S.List
      (S.Atom "chunk" :: fields) -> (
      let* seq = Snapshot.int_of_field fields "seq" in
      let* first = Snapshot.int_of_field fields "first" in
      let* count = Snapshot.int_of_field fields "count" in
      match S.assoc "records" fields with
      | None -> Error "chunk: missing records"
      | Some items ->
          let* records =
            List.fold_left
              (fun acc item ->
                let* acc = acc in
                let* r = Log.record_of_sexp item in
                Ok (r :: acc))
              (Ok []) items
            |> Result.map List.rev
          in
          if List.length records <> count then
            Error
              (Printf.sprintf "chunk %d: count %d but %d records" seq count
                 (List.length records))
          else Ok ({ seq; first; count }, records))
  | _ -> Error "chunk: unexpected payload shape"

let snap_err r = Result.map_error Snapshot.error_to_string r

(* Fold [records] (the live tail) into the next immutable chunk, update
   the offset index, and — when the caller provides one — write the
   [base] state snapshot taken at this cement boundary.  Each file is an
   individually-CRC'd {!Util.Snapshot} container written atomically, and
   the order (chunk, then index, then base, then the caller truncates
   the tail) makes every crash point recoverable: a chunk the index does
   not yet list is re-derived on recovery, and a tail that was never
   truncated merely replays records already folded into the base —
   harmless, because record application is idempotent.

   Fault site: [store.cement].  Simulates dying mid-compaction by
   leaving a torn [chunk-*.store.tmp] orphan (exactly what a killed
   process leaves behind mid-rename) and raising
   {!Util.Faultinj.Injected}; no live file is touched. *)
let cement ~dir ?base ~records () =
  let* chunks = read_index ~dir in
  let seq, first =
    match List.rev chunks with
    | [] -> (0, 0)
    | last :: _ -> (last.seq + 1, last.first + last.count)
  in
  let info = { seq; first; count = List.length records } in
  let payload = chunk_to_sexp info records in
  match Util.Faultinj.check "store.cement" with
  | Some f ->
      let text = Snapshot.render ~kind:chunk_kind payload in
      (try
         Out_channel.with_open_bin
           (chunk_path ~dir seq ^ ".tmp")
           (fun oc ->
             Out_channel.output_string oc (String.sub text 0 (String.length text / 2)))
       with Sys_error _ -> ());
      raise (Util.Faultinj.Injected f)
  | None ->
      let* () = snap_err (Snapshot.save ~path:(chunk_path ~dir seq) ~kind:chunk_kind payload) in
      let* () =
        snap_err
          (Snapshot.save ~path:(index_path ~dir) ~kind:index_kind
             (index_to_sexp (chunks @ [ info ])))
      in
      let* () =
        match base with
        | None -> Ok ()
        | Some b -> snap_err (Snapshot.save ~path:(base_path ~dir) ~kind:base_kind b)
      in
      Obs.Counter.incr c_cements;
      Ok seq

(* Rewrite only the base snapshot — a "rebase".  Used when the daemon's
   state did not come from this log (a fresh epoch): the caller writes
   its current state as the new base and truncates the tail, so
   recovery works from here without fabricating an empty chunk. *)
let write_base ~dir payload =
  snap_err (Snapshot.save ~path:(base_path ~dir) ~kind:base_kind payload)

(* --- recovery ---------------------------------------------------------- *)

type recovery = {
  base : S.t option;    (** state at the last cement boundary, if any *)
  tail : Log.scan;      (** records appended since then *)
  chunks : int;
  cemented_records : int;
}

(* What the daemon needs to come back: the base snapshot from the last
   cement plus the tail replayed on top.  Cemented chunks are {e not}
   read here — they exist for historical replay — so recovery cost is
   O(base + tail) regardless of how much history has been cemented.

   Fault site: [store.recover] fires before anything is read; the
   daemon's start fails. *)
let recover ~dir =
  Util.Faultinj.hit "store.recover";
  let* base =
    let path = base_path ~dir in
    if not (Sys.file_exists path) then Ok None
    else
      match Snapshot.load ~kind:base_kind ~path () with
      | Error e -> Error (Snapshot.error_to_string e)
      | Ok payload -> Ok (Some payload)
  in
  let* tail = Log.read ~path:(tail_path ~dir) in
  let* index = read_index ~dir in
  Obs.Counter.incr c_recoveries;
  Ok
    {
      base;
      tail;
      chunks = List.length index;
      cemented_records = List.fold_left (fun acc c -> acc + c.count) 0 index;
    }

(* Load every cemented chunk in order (for replay, not daemon
   recovery).  A chunk file beyond the index — a crash between the
   chunk write and the index write — is picked up as long as it is
   contiguous; a missing or checksum-failing chunk is a hard error. *)
let read_chunks ~dir =
  let* index = read_index ~dir in
  let next = match List.rev index with [] -> 0 | last :: _ -> last.seq + 1 in
  let index =
    if Sys.file_exists (chunk_path ~dir next) then
      index @ [ { seq = next; first = -1; count = -1 } ]
    else index
  in
  List.fold_left
    (fun acc { seq; _ } ->
      let* acc = acc in
      let path = chunk_path ~dir seq in
      match Snapshot.load ~kind:chunk_kind ~path () with
      | Error e -> Error (Printf.sprintf "%s: %s" path (Snapshot.error_to_string e))
      | Ok payload ->
          let* _info, records = chunk_of_sexp payload in
          Ok (List.rev_append records acc))
    (Ok []) index
  |> Result.map List.rev

(* All records ever logged, cemented then live tail — the replay feed. *)
let read_all ~dir =
  let* cemented = read_chunks ~dir in
  let* tail = Log.read ~path:(tail_path ~dir) in
  Ok (cemented @ tail.Log.records)

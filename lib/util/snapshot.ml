let version = 1

let magic = "rightsizer-snapshot"

type error =
  | Io_error of string
  | Bad_format of string
  | Unknown_version of int
  | Wrong_kind of { expected : string; actual : string }
  | Bad_checksum of { expected : string; actual : string }
  | Too_large of { limit : int; actual : int }

let error_to_string = function
  | Io_error m -> "I/O error: " ^ m
  | Bad_format m -> "bad snapshot format: " ^ m
  | Unknown_version v ->
      Printf.sprintf "unknown snapshot version %d (this build reads <= %d)" v version
  | Wrong_kind { expected; actual } ->
      Printf.sprintf "wrong snapshot kind: expected %s, found %s" expected actual
  | Bad_checksum { expected; actual } ->
      Printf.sprintf "checksum mismatch (stored %s, computed %s): torn or corrupted write"
        expected actual
  | Too_large { limit; actual } ->
      Printf.sprintf "snapshot is %d bytes, above the %d-byte read guard" actual limit

(* Generous enough for any checkpoint this repo writes (the biggest —
   a large-fleet DP frontier — is a few MB), small enough that a
   corrupt or hostile file cannot make [load] allocate without bound. *)
let default_max_bytes = 1 lsl 30

let c_saves = Obs.Counter.make "snapshot.saves"
let c_loads = Obs.Counter.make "snapshot.loads"
let c_rejected = Obs.Counter.make "snapshot.rejected"

(* FNV-1a, 64 bit.  Hand-rolled (no external dependency) and plenty for
   torn-write detection — this guards against crashes, not adversaries. *)
let fnv1a64 s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun ch ->
      h := Int64.logxor !h (Int64.of_int (Char.code ch));
      h := Int64.mul !h 0x100000001B3L)
    s;
  Printf.sprintf "%016Lx" !h

(* Floats as C99 hex literals: bit-exact round trips, readable enough
   to eyeball, and parsed natively by [float_of_string]. *)
let float_atom f =
  if Float.is_nan f then Sexp.Atom "nan"
  else if f = Float.infinity then Sexp.Atom "inf"
  else if f = Float.neg_infinity then Sexp.Atom "-inf"
  else Sexp.Atom (Printf.sprintf "%h" f)

let float_of_atom = function
  | Sexp.Atom "inf" -> Some Float.infinity
  | Sexp.Atom "-inf" -> Some Float.neg_infinity
  | Sexp.Atom "nan" -> Some Float.nan
  | s -> Sexp.float_atom s

(* The atoms of small counts, shared: a decision's counts then render
   with no allocation. *)
let small_ints = Array.init 256 (fun i -> Sexp.Atom (string_of_int i))

let int_atom i = if i >= 0 && i < 256 then small_ints.(i) else Sexp.Atom (string_of_int i)

let float_array_field name a =
  Sexp.List (Sexp.Atom name :: Array.fold_right (fun f l -> float_atom f :: l) a [])

let int_array_field name a =
  Sexp.List (Sexp.Atom name :: Array.fold_right (fun i l -> int_atom i :: l) a [])

let field items name =
  match Sexp.assoc name items with
  | Some args -> Ok args
  | None -> Error (Printf.sprintf "missing field %s" name)

let malformed name = Error (Printf.sprintf "malformed field %s" name)

(* Decode [args] into [a] from index [i], with no intermediate list. *)
let rec decode_into decode name a i = function
  | [] -> Ok a
  | s :: rest -> (
      match decode s with
      | Some v ->
          a.(i) <- v;
          decode_into decode name a (i + 1) rest
      | None -> malformed name)

let decode_all decode name args =
  match args with
  | [] -> Ok [||]
  | first :: rest -> (
      match decode first with
      | Some v -> decode_into decode name (Array.make (List.length args) v) 1 rest
      | None -> malformed name)

let floats_of_field items name =
  match field items name with
  | Ok args -> decode_all float_of_atom name args
  | Error _ as e -> e

let ints_of_field items name =
  match field items name with
  | Ok args -> decode_all Sexp.int_atom name args
  | Error _ as e -> e

let int_of_field items name =
  match field items name with
  | Error _ as e -> e
  | Ok [ s ] -> (
      match Sexp.int_atom s with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "malformed field %s" name))
  | Ok _ -> Error (Printf.sprintf "field %s is not a single integer" name)

let render ~kind payload =
  let body = Sexp.to_string payload in
  Sexp.to_string
    (Sexp.List
       [ Sexp.Atom magic;
         Sexp.List [ Sexp.Atom "version"; Sexp.Atom (string_of_int version) ];
         Sexp.List [ Sexp.Atom "kind"; Sexp.Atom kind ];
         Sexp.List [ Sexp.Atom "crc64"; Sexp.Atom (fnv1a64 body) ];
         payload ])
  ^ "\n"

let reject e =
  Obs.Counter.incr c_rejected;
  Error e

let parse ?kind text =
  match Sexp.parse (String.trim text) with
  | Error m -> reject (Bad_format m)
  | Ok (Sexp.Atom _) -> reject (Bad_format "not a snapshot container")
  | Ok (Sexp.List (Sexp.Atom m :: fields)) when m = magic -> (
      match
        ( Result.bind (field fields "version") (fun args ->
              match args with
              | [ s ] -> (
                  match Sexp.int_atom s with
                  | Some v -> Ok v
                  | None -> Error "malformed field version")
              | _ -> Error "malformed field version"),
          field fields "kind",
          field fields "crc64" )
      with
      | Error m, _, _ | _, Error m, _ | _, _, Error m -> reject (Bad_format m)
      | Ok v, _, _ when v <> version -> reject (Unknown_version v)
      | _, Ok [ Sexp.Atom actual ], _ when kind <> None && kind <> Some actual ->
          reject (Wrong_kind { expected = Option.get kind; actual })
      | _, Ok [ Sexp.Atom _ ], Ok [ Sexp.Atom stored ] -> (
          (* The payload is the last (non-header) element. *)
          match
            List.filter
              (function
                | Sexp.List (Sexp.Atom ("version" | "kind" | "crc64") :: _) -> false
                | Sexp.Atom _ | Sexp.List _ -> true)
              fields
          with
          | [ payload ] ->
              let actual = fnv1a64 (Sexp.to_string payload) in
              if actual <> stored then
                reject (Bad_checksum { expected = stored; actual })
              else begin
                Obs.Counter.incr c_loads;
                Ok payload
              end
          | [] -> reject (Bad_format "missing payload")
          | _ -> reject (Bad_format "multiple payloads"))
      | _ -> reject (Bad_format "malformed header"))
  | Ok (Sexp.List _) -> reject (Bad_format "not a snapshot container")

let save ~path ~kind payload =
  let text = render ~kind payload in
  match Faultinj.check "snapshot.write" with
  | Some f ->
      (* Simulated crash mid-write: leave a torn prefix at the real
         destination (no atomic rename to hide behind) and fail the way
         a dying process would. *)
      (try
         Out_channel.with_open_bin path (fun oc ->
             Out_channel.output_string oc (String.sub text 0 (String.length text / 2)))
       with Sys_error _ -> ());
      raise (Faultinj.Injected f)
  | None -> (
      Obs.Span.with_ "snapshot.save" ~args:[ ("kind", kind); ("path", path) ]
      @@ fun () ->
      let tmp = path ^ ".tmp" in
      match
        Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc text);
        Sys.rename tmp path
      with
      | () ->
          Obs.Counter.incr c_saves;
          Ok ()
      | exception Sys_error m -> Error (Io_error m))

let load ?kind ?(max_bytes = default_max_bytes) ~path () =
  (* Size guard before the allocation: the length comes from the file
     system, not from any length field inside the (possibly corrupt or
     hostile) file, so an oversized snapshot is rejected without ever
     buffering it. *)
  match
    In_channel.with_open_bin path (fun ic ->
        let len = In_channel.length ic in
        if Int64.compare len (Int64.of_int max_bytes) > 0 then
          reject (Too_large { limit = max_bytes; actual = Int64.to_int len })
        else Ok (In_channel.input_all ic))
  with
  | exception Sys_error m -> Error (Io_error m)
  | Error _ as e -> e
  | Ok text -> parse ?kind text

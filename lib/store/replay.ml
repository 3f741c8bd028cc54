module S = Util.Sexp

(* --- trace reconstruction --------------------------------------------- *)

type trace = {
  id : string;
  scenario : string;
  max_horizon : int option;
  alg : string option;
  alg_used : string;
  loads : float array;
  closed : bool;
}

type building = {
  t_id : string;
  t_scenario : string;
  t_max_horizon : int option;
  t_alg : string option;
  t_alg_used : string;
  buf : Buffer.t;  (* loads, 8 bytes each, little-endian *)
  mutable n : int;
  mutable t_closed : bool;
}

let push b x =
  Buffer.add_int64_le b.buf (Int64.bits_of_float x);
  b.n <- b.n + 1

let finish b =
  let bytes = Buffer.contents b.buf in
  let loads =
    Array.init b.n (fun i -> Int64.float_of_bits (String.get_int64_le bytes (i * 8)))
  in
  {
    id = b.t_id;
    scenario = b.t_scenario;
    max_horizon = b.t_max_horizon;
    alg = b.t_alg;
    alg_used = b.t_alg_used;
    loads;
    closed = b.t_closed;
  }

(* Fold a record stream into per-session traces.  The stream may
   contain overlaps — a tail that was never truncated after a cement
   replays records already folded into a chunk — so a duplicate
   [Create] is ignored and a [Feed] whose [seq] lands inside the
   already-reconstructed history contributes only its fresh suffix,
   mirroring the idempotence of [Session.feed] itself.  A [seq] {e
   beyond} the history is real corruption (a lost record) and fails the
   fold. *)
let traces_of_records records =
  let tbl : (string, building) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let fold = function
    | Log.Create { id; scenario; max_horizon; alg; alg_used } ->
        if not (Hashtbl.mem tbl id) then begin
          Hashtbl.replace tbl id
            {
              t_id = id;
              t_scenario = scenario;
              t_max_horizon = max_horizon;
              t_alg = alg;
              t_alg_used = alg_used;
              buf = Buffer.create 256;
              n = 0;
              t_closed = false;
            };
          order := id :: !order
        end;
        Ok ()
    | Log.Feed { id; seq; loads } -> (
        match Hashtbl.find_opt tbl id with
        | None -> Error (Printf.sprintf "feed for unknown session %s" id)
        | Some b ->
            if seq > b.n then
              Error
                (Printf.sprintf "session %s: feed seq %d leaves a gap after %d slots" id
                   seq b.n)
            else begin
              let skip = b.n - seq in
              for i = skip to Array.length loads - 1 do
                push b loads.(i)
              done;
              Ok ()
            end)
    | Log.Close { id } ->
        (match Hashtbl.find_opt tbl id with
        | None -> ()
        | Some b -> b.t_closed <- true);
        Ok ()
  in
  let rec go = function
    | [] -> Ok ()
    | r :: rest -> ( match fold r with Ok () -> go rest | Error _ as e -> e)
  in
  match go records with
  | Error _ as e -> e
  | Ok () -> Ok (List.rev_map (fun id -> finish (Hashtbl.find tbl id)) !order)

let traces ~dir =
  match Cemented.read_all ~dir with
  | Error _ as e -> e
  | Ok records -> traces_of_records records

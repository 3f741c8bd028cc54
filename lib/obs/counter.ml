(* Counters are striped LongAdder-style: each domain fetch-and-adds a
   shard picked by its id, and readers sum the shards.  A single shared
   cell turns every hot-path increment into a contended cache-line
   ownership transfer once a domain pool fans work out; striping
   keeps the RMWs local while staying exact.  The dummy allocations in
   [make_cells] space consecutive shards onto different cache lines. *)

let stripes = 8 (* power of two; see [shard] *)

type t = { name : string; cells : int Atomic.t array }

let make_cells () =
  Array.init stripes (fun _ ->
      let c = Atomic.make 0 in
      ignore (Sys.opaque_identity (Array.make 7 0));
      c)

let shard () = (Domain.self () :> int) land (stripes - 1)

let lock = Mutex.create ()
let registry : (string, t) Hashtbl.t = Hashtbl.create 64

let make name =
  Mutex.lock lock;
  let c =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
        let c = { name; cells = make_cells () } in
        Hashtbl.add registry name c;
        c
  in
  Mutex.unlock lock;
  c

let name t = t.name
let incr t = ignore (Atomic.fetch_and_add (Array.unsafe_get t.cells (shard ())) 1)

let add t n =
  if n <> 0 then ignore (Atomic.fetch_and_add (Array.unsafe_get t.cells (shard ())) n)

let value t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.cells
let reset t = Array.iter (fun c -> Atomic.set c 0) t.cells

let find name =
  Mutex.lock lock;
  let c = Hashtbl.find_opt registry name in
  Mutex.unlock lock;
  c

let snapshot () =
  Mutex.lock lock;
  let all = Hashtbl.fold (fun _ c acc -> (c.name, value c) :: acc) registry [] in
  Mutex.unlock lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let reset_all () =
  Mutex.lock lock;
  Hashtbl.iter (fun _ c -> reset c) registry;
  Mutex.unlock lock

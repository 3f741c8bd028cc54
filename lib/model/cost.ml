let cap_eps = 1e-9

(* Total capacity of configuration [x]; feasible iff >= load. *)
let config_capacity inst x = Config.capacity inst.Instance.types x

let all_constant inst ~time x =
  let d = Instance.num_types inst in
  let ok = ref true in
  for typ = 0 to d - 1 do
    if x.(typ) > 0 && not (Convex.Fn.is_constant (inst.Instance.cost ~time ~typ)) then
      ok := false
  done;
  !ok

let idle_sum inst ~time x =
  let acc = ref 0. in
  Array.iteri
    (fun typ xj ->
      if xj > 0 then
        acc := !acc +. (float_of_int xj *. Instance.idle_cost inst ~time ~typ))
    x;
  !acc

(* Proportional-to-capacity split: feasible whenever the configuration
   covers the load, used when every active type has constant cost. *)
let proportional_split inst x =
  let types = inst.Instance.types in
  let cap = config_capacity inst x in
  Array.mapi
    (fun j xj -> float_of_int xj *. types.(j).Server_type.cap /. cap)
    x

let pieces inst ~time x ~load =
  let types = inst.Instance.types in
  Array.mapi
    (fun j xj ->
      if xj = 0 then { Convex.Dispatch.fn = Convex.Fn.const 0.; upper = 0. }
      else
        let xf = float_of_int xj in
        let fn =
          Convex.Fn.compose_scaled ~outer:xf ~inner:(load /. xf)
            (inst.Instance.cost ~time ~typ:j)
        in
        let upper = Float.min 1. (xf *. types.(j).Server_type.cap /. load) in
        { Convex.Dispatch.fn; upper })
    x

let split_for_volume inst ~time ~load x =
  let d = Instance.num_types inst in
  if load <= 0. then Some (Array.make d 0., idle_sum inst ~time x)
  else if config_capacity inst x +. cap_eps < load then None
  else if all_constant inst ~time x then
    Some (proportional_split inst x, idle_sum inst ~time x)
  else if d = 1 then begin
    (* Lemma 2: spread the volume evenly over the active servers. *)
    let xf = float_of_int x.(0) in
    let z = Float.min (load /. xf) inst.Instance.types.(0).Server_type.cap in
    Some ([| 1. |], xf *. Convex.Fn.eval (inst.Instance.cost ~time ~typ:0) z)
  end
  else
    match Convex.Dispatch.solve (pieces inst ~time x ~load) ~total:1. with
    | None -> None
    | Some { assignment; objective } ->
        (* Idle cost of types left without volume still accrues: the
           dispatch pieces already include it via h_j(0) = x_j f(0). *)
        Some (assignment, objective)

let operating_split inst ~time x =
  split_for_volume inst ~time ~load:inst.Instance.load.(time) x

let operating_by_type inst ~time ~volume x =
  if volume < 0. then invalid_arg "Cost.operating_by_type: negative volume";
  match split_for_volume inst ~time ~load:volume x with
  | None -> None
  | Some (split, _) ->
      Some
        (Array.mapi
           (fun j xj ->
             if xj = 0 then 0.
             else
               let xf = float_of_int xj in
               xf
               *. Convex.Fn.eval (inst.Instance.cost ~time ~typ:j)
                    (volume *. split.(j) /. xf))
           x)

let operating_volume inst ~time ~volume x =
  if volume < 0. then invalid_arg "Cost.operating_volume: negative volume";
  match split_for_volume inst ~time ~load:volume x with
  | None -> infinity
  | Some (_, g) -> g

let operating inst ~time x =
  match operating_split inst ~time x with None -> infinity | Some (_, g) -> g

let load_dependent inst ~time x ~typ =
  match operating_split inst ~time x with
  | None -> infinity
  | Some (split, _) ->
      if x.(typ) = 0 then 0.
      else
        let xf = float_of_int x.(typ) in
        let fn = inst.Instance.cost ~time ~typ in
        let per_server = inst.Instance.load.(time) *. split.(typ) /. xf in
        Float.max 0. (xf *. (Convex.Fn.eval fn per_server -. Convex.Fn.eval fn 0.))

let switching inst ~from_ ~to_ = Config.switching_cost inst.Instance.types ~from_ ~to_

let schedule_operating inst s =
  let acc = ref 0. in
  for time = 0 to Instance.horizon inst - 1 do
    acc := !acc +. operating inst ~time s.(time)
  done;
  !acc

let schedule_switching inst s =
  let d = Instance.num_types inst in
  let horizon = Instance.horizon inst in
  let prev = ref (Config.zero d) in
  let acc = ref 0. in
  for time = 0 to horizon - 1 do
    acc := !acc +. Config.transition_cost inst.Instance.types ~from_:!prev ~to_:s.(time);
    prev := s.(time)
  done;
  (* Final teardown to x_{T+1} = 0 (free unless down costs are set). *)
  if horizon > 0 then
    acc :=
      !acc +. Config.transition_cost inst.Instance.types ~from_:!prev ~to_:(Config.zero d);
  !acc

let schedule inst s =
  if Schedule.horizon s <> Instance.horizon inst then
    invalid_arg "Cost.schedule: horizon mismatch";
  schedule_operating inst s +. schedule_switching inst s

(* The memo: flat per-slot tables addressed by grid rank.  The DP
   loops already know each state's flat index, so the index *is* the
   key.  No hashing, no key allocation, no locks: [nan] marks an empty
   slot ([operating] never returns [nan] — infeasible states are
   [infinity]), pool workers write disjoint ranks during a fill, and a
   racing duplicate write stores the identical bit pattern, so a plain
   float array is safe. *)

type cache = {
  inst : Instance.t;
  layers : float array array; (* slot -> rank -> g_t(x); [nan] = empty *)
}

let make_cache inst =
  { inst; layers = Array.make (max 1 (Instance.horizon inst)) [||] }

let c_rank_hits = Obs.Counter.make "cost.rank_hits"
let c_rank_misses = Obs.Counter.make "cost.rank_misses"

let cache_instance cache = cache.inst

let layer_table cache ~time n =
  let cur = cache.layers.(time) in
  if Array.length cur >= n then cur
  else begin
    (* A different size means a different rank space (a different grid):
       start empty rather than reinterpret stale ranks. *)
    let t = Array.make n nan in
    cache.layers.(time) <- t;
    t
  end

(* A piece with no capacity; shared so line fills allocate nothing for
   inactive types. *)
let zero_piece = { Convex.Dispatch.fn = Convex.Fn.const 0.; upper = 0. }

(* Per-domain pieces scratch for the line fills: the prefix pieces are
   built once per line and only the swept axis's piece is rebuilt per
   cell (which also lets the dispatch sweep reuse their cached endpoint
   derivatives via physical equality). *)
let pieces_key : Convex.Dispatch.piece array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let pieces_scratch d =
  let buf = Domain.DLS.get pieces_key in
  if Array.length !buf <> d then buf := Array.make d zero_piece;
  !buf

let make_piece fn xj ~load ~cap =
  if xj = 0 then zero_piece
  else begin
    let xf = float_of_int xj in
    { Convex.Dispatch.fn = Convex.Fn.compose_scaled ~outer:xf ~inner:(load /. xf) fn;
      upper = Float.min 1. (xf *. cap /. load) }
  end

(* Per-layer invariants of a line fill: the swept (last) axis's
   dispatch piece and its solver stats per value index.  Every line of
   a layer shares the same load and last-axis values, so these are
   derived once per layer instead of once per cell; the arrays are
   immutable after construction and safe to share across pool
   domains. *)
type line_ctx = {
  lx_pieces : Convex.Dispatch.piece array;
  lx_swept : Convex.Dispatch.stats option array;
}

let line_ctx inst ~time ~values =
  let d = Instance.num_types inst in
  let load = inst.Instance.load.(time) in
  if load <= 0. then { lx_pieces = [||]; lx_swept = [||] }
  else begin
    let types = inst.Instance.types in
    let fn_last = inst.Instance.cost ~time ~typ:(d - 1) in
    let cap_last = types.(d - 1).Server_type.cap in
    let pieces =
      Array.map (fun v -> make_piece fn_last v ~load ~cap:cap_last) values
    in
    let swept = Array.map (fun p -> Some (Convex.Dispatch.piece_stats p)) pieces in
    { lx_pieces = pieces; lx_swept = swept }
  end

(* Fill the not-yet-computed ([nan]) entries of one grid line of a
   slot-[time] operating-cost table (a memo rank table or a caller's
   reused row): ranks [rank0 .. rank0 + |values| - 1], whose
   configurations share the prefix [x.(0 .. d-2)] and take the swept
   (last) axis's value from [values] (ascending, so capacity is
   non-decreasing and the dispatch sweep's warm bracket applies).
   [x] is only read, and [x.(d-1)] not at all.  Every fast path
   reproduces [operating] bit-for-bit (same summation order); the
   dispatch path solves the same KKT system from a warm bracket, which
   can move the objective at the solver-tolerance level (~1e-12
   relative) only.  A dispatch cell allocates nothing: the pieces come
   from the line's scratch and [ctx], and the solver writes the
   objective straight into [table]. *)
let fill_line ~ctx inst ~time ~table ~rank0 ~x ~values =
  let d = Array.length x in
  let len = Array.length values in
  let any = ref false in
  for i = 0 to len - 1 do
    if Float.is_nan table.(rank0 + i) then any := true
  done;
  if !any then begin
    let types = inst.Instance.types in
    let load = inst.Instance.load.(time) in
    let misses = ref 0 in
    if load <= 0. then begin
      (* idle_sum, split into the fixed-prefix part and the swept term
         (ascending-type order keeps the float sum identical). *)
      let base = ref 0. in
      for j = 0 to d - 2 do
        if x.(j) > 0 then
          base := !base +. (float_of_int x.(j) *. Instance.idle_cost inst ~time ~typ:j)
      done;
      let idle_last = Instance.idle_cost inst ~time ~typ:(d - 1) in
      for i = 0 to len - 1 do
        let idx = rank0 + i in
        if Float.is_nan table.(idx) then begin
          incr misses;
          let v = values.(i) in
          table.(idx) <-
            (if v > 0 then !base +. (float_of_int v *. idle_last) else !base)
        end
      done
    end
    else begin
      let cap_last = types.(d - 1).Server_type.cap in
      let cap_base = ref 0. in
      for j = 0 to d - 2 do
        cap_base := !cap_base +. (float_of_int x.(j) *. types.(j).Server_type.cap)
      done;
      let base_const = ref true in
      for j = 0 to d - 2 do
        if x.(j) > 0 && not (Convex.Fn.is_constant (inst.Instance.cost ~time ~typ:j))
        then base_const := false
      done;
      let base_const = !base_const in
      let fn_last = inst.Instance.cost ~time ~typ:(d - 1) in
      let last_const = Convex.Fn.is_constant fn_last in
      (* The load-independent cells' idle sums, derived only on the
         lines that can have such cells. *)
      let idle_base =
        if base_const then begin
          let acc = ref 0. in
          for j = 0 to d - 2 do
            if x.(j) > 0 then
              acc := !acc +. (float_of_int x.(j) *. Instance.idle_cost inst ~time ~typ:j)
          done;
          !acc
        end
        else 0.
      in
      let idle_last =
        if base_const && last_const then Instance.idle_cost inst ~time ~typ:(d - 1) else 0.
      in
      let ps = pieces_scratch d in
      for j = 0 to d - 2 do
        ps.(j) <- make_piece (inst.Instance.cost ~time ~typ:j) x.(j) ~load
                    ~cap:types.(j).Server_type.cap
      done;
      let sw = Convex.Dispatch.sweep_start () in
      for i = 0 to len - 1 do
        let idx = rank0 + i in
        if Float.is_nan table.(idx) then begin
          incr misses;
          let v = values.(i) in
          let cap = !cap_base +. (float_of_int v *. cap_last) in
          if cap +. cap_eps < load then table.(idx) <- infinity
          else if base_const && (v = 0 || last_const) then
            table.(idx) <-
              (if v > 0 then idle_base +. (float_of_int v *. idle_last) else idle_base)
          else if d = 1 then begin
            (* Lemma 2: spread the volume evenly over the active servers. *)
            let xf = float_of_int v in
            let z = Float.min (load /. xf) cap_last in
            table.(idx) <- xf *. Convex.Fn.eval fn_last z
          end
          else begin
            ps.(d - 1) <- ctx.lx_pieces.(i);
            Convex.Dispatch.sweep_solve ?swept:ctx.lx_swept.(i) sw ps ~total:1. table idx
          end
        end
      done;
      Convex.Dispatch.sweep_finish sw
    end;
    if !misses > 0 then Obs.Counter.add c_rank_misses !misses
  end

let operating_rank cache ~time ~rank x =
  let t = cache.layers.(time) in
  let v = t.(rank) in
  if Float.is_nan v then begin
    Obs.Counter.incr c_rank_misses;
    let g = operating cache.inst ~time x in
    t.(rank) <- g;
    g
  end
  else begin
    Obs.Counter.incr c_rank_hits;
    v
  end

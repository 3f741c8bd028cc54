let recommended_domains () = max 1 (Domain.recommended_domain_count ())

(* Right-size the fan-out to the hardware: with fewer cores than the
   pool has domains, the surplus participants only add chunk hand-off
   and wake-up overhead (on a single-core runner this collapses the
   pooled path to the plain sequential loop). *)
let width = function
  | None -> 1
  | Some pool -> min (Pool.size pool) (recommended_domains ())

(* Below this many items the job hand-off overhead dominates any
   speed-up, even on the persistent pool. *)
let min_parallel_items = 256

let c_fills = Obs.Counter.make "parallel.fills"

let parallel_for ?pool ?(min_items = min_parallel_items) ~n f =
  let workers = width pool in
  match pool with
  | Some p when workers > 1 && n >= min_items ->
      Obs.Counter.incr c_fills;
      Obs.Span.with_ "parallel.fill"
        ~args:[ ("n", string_of_int n); ("workers", string_of_int workers) ]
      @@ fun () -> Pool.run ~workers p ~n f
  | Some _ | None ->
      for i = 0 to n - 1 do
        f i
      done

let parallel_fill ?pool ?min_items out f =
  parallel_for ?pool ?min_items ~n:(Array.length out) (fun i -> out.(i) <- f i)

let parallel_init ?pool ?min_items n f =
  if n = 0 then [||]
  else begin
    let out = Array.make n (f 0) in
    parallel_fill ?pool ?min_items out f;
    out
  end

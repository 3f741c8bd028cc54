let recommended_domains () = max 1 (Domain.recommended_domain_count ())

let effective_domains domains = min domains (recommended_domains ())

(* Below this many items the job hand-off overhead dominates any
   speed-up, even on the persistent pool. *)
let min_parallel_items = 256

let c_fills = Obs.Counter.make "parallel.fills"

(* --- process-wide pool ------------------------------------------------ *)

let global_lock = Mutex.create ()
let global_pool : Pool.t option ref = ref None
let exit_hook = ref false

let global ~domains =
  (* Clamp like Pool.create does, so an oversized request doesn't make
     every call tear the pool down and rebuild it. *)
  let domains = max 1 (min domains Pool.max_domains) in
  Mutex.lock global_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock global_lock) @@ fun () ->
  match !global_pool with
  | Some p when (not (Pool.is_shutdown p)) && Pool.size p >= domains -> p
  | previous ->
      (match previous with Some p -> Pool.shutdown p | None -> ());
      global_pool := None;
      let p = Pool.create ~name:"pool" ~domains () in
      global_pool := Some p;
      if not !exit_hook then begin
        exit_hook := true;
        at_exit (fun () ->
            Mutex.lock global_lock;
            let p = !global_pool in
            global_pool := None;
            Mutex.unlock global_lock;
            match p with Some p -> Pool.shutdown p | None -> ())
      end;
      p

(* --- public helpers --------------------------------------------------- *)

let parallel_for ?pool ?(min_items = min_parallel_items) ~domains ~n f =
  (* Right-size the fan-out to the hardware: with fewer cores than the
     requested width, the surplus participants only add chunk hand-off
     and wake-up overhead (on a single-core runner this collapses the
     pooled path to the plain sequential loop). *)
  let domains = effective_domains domains in
  if domains <= 1 || n < min_items then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    Obs.Counter.incr c_fills;
    Obs.Span.with_ "parallel.fill"
      ~args:[ ("n", string_of_int n); ("workers", string_of_int domains) ]
    @@ fun () ->
    let pool = match pool with Some p -> p | None -> global ~domains in
    Pool.run ~workers:domains pool ~n f
  end

let parallel_fill ?pool ?min_items ~domains out f =
  parallel_for ?pool ?min_items ~domains ~n:(Array.length out) (fun i -> out.(i) <- f i)

let parallel_init ?pool ?min_items ~domains n f =
  if n = 0 then [||]
  else begin
    let out = Array.make n (f 0) in
    parallel_fill ?pool ?min_items ~domains out f;
    out
  end

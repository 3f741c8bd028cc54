(* Workers spawned once, jobs distributed through one atomic cursor.

   A job is published by storing it in [job] and bumping [epoch] under
   the lock, then broadcasting; workers sleep while the epoch they last
   served is still current.  Inside a job there is no locking at all:
   every participant (workers and the submitter) repeatedly
   fetch-and-adds the shared chunk cursor and runs the chunk it won, so
   load imbalance between chunks self-corrects.  Completion is an
   atomic count of finished chunks; the last finisher broadcasts the
   [finished] condvar for the submitter.

   Plain writes done by a work item are published to the submitter
   through the [remaining] fetch-and-add (release) followed by the
   submitter's read of the same atomic (acquire), per the OCaml 5
   memory model. *)

let c_pools = Obs.Counter.make "pool.pools"
let c_spawns = Obs.Counter.make "pool.domain_spawns"
let c_jobs = Obs.Counter.make "pool.jobs"
let c_seq_jobs = Obs.Counter.make "pool.seq_jobs"
let c_nested_jobs = Obs.Counter.make "pool.nested_jobs"
let c_chunks = Obs.Counter.make "pool.chunks"
let c_queue_waits = Obs.Counter.make "pool.queue_waits"
let c_busy_us = Obs.Counter.make "pool.busy_us"
let c_degraded = Obs.Counter.make "pool.degraded_jobs"

type job = {
  fn : int -> unit;
  n : int;
  chunk : int;
  n_chunks : int;
  cursor : int Atomic.t;     (* next chunk index to hand out *)
  remaining : int Atomic.t;  (* chunks not yet finished *)
  error : exn option Atomic.t;
}

type t = {
  name : string;
  lock : Mutex.t;
  wake : Condition.t;      (* new job published, or shutting down *)
  finished : Condition.t;  (* a job's last chunk completed *)
  mutable job : job option;
  mutable epoch : int;
  mutable stop : bool;
  mutable workers : unit Domain.t list;  (* emptied by shutdown *)
  mutable size : int;
}

(* The OCaml runtime refuses to run more than ~128 domains at once;
   stay well under so several pools plus the caller's own domains can
   coexist (oversized requests come from stress tests, not real
   hardware). *)
let max_domains = 64

(* True while the current domain is executing a work item of any pool;
   nested [run]s then degrade to sequential execution instead of
   deadlocking on their own worker slot. *)
let in_work_item = Domain.DLS.new_key (fun () -> ref false)

(* Run the chunks this domain can win.  Returns when the cursor is
   exhausted; the last finished chunk signals [finished]. *)
let participate t job =
  let flag = Domain.DLS.get in_work_item in
  flag := true;
  let t0 = Obs.Span.now_us () in
  let rec grab () =
    let c = Atomic.fetch_and_add job.cursor 1 in
    if c < job.n_chunks then begin
      let lo = c * job.chunk in
      let hi = min (job.n - 1) (lo + job.chunk - 1) in
      (* After a failure, drain the cursor without running more work so
         the submitter can re-raise promptly. *)
      if Atomic.get job.error = None then begin
        Obs.Counter.incr c_chunks;
        try
          (* Fault site: a worker dying at a chunk boundary.  The
             submitter degrades the whole job to a sequential retry. *)
          Faultinj.hit "pool.job";
          for i = lo to hi do
            job.fn i
          done
        with e -> ignore (Atomic.compare_and_set job.error None (Some e))
      end;
      if Atomic.fetch_and_add job.remaining (-1) = 1 then begin
        Mutex.lock t.lock;
        Condition.broadcast t.finished;
        Mutex.unlock t.lock
      end;
      grab ()
    end
  in
  grab ();
  flag := false;
  Obs.Counter.add c_busy_us (int_of_float (Obs.Span.now_us () -. t0))

let rec worker_loop t last_epoch =
  Mutex.lock t.lock;
  while (not t.stop) && t.epoch = last_epoch do
    Obs.Counter.incr c_queue_waits;
    Condition.wait t.wake t.lock
  done;
  let stop = t.stop and epoch = t.epoch and job = t.job in
  Mutex.unlock t.lock;
  if not stop then begin
    Option.iter (participate t) job;
    worker_loop t epoch
  end

let create ?(name = "pool") ~domains () =
  let size = max 1 (min domains max_domains) in
  Obs.Counter.incr c_pools;
  let t =
    { name;
      lock = Mutex.create ();
      wake = Condition.create ();
      finished = Condition.create ();
      job = None;
      epoch = 0;
      stop = false;
      workers = [];
      size }
  in
  (* If the runtime runs out of domain slots (other pools or the test
     harness already hold some), keep whatever was spawned: a smaller
     pool is degraded, not broken. *)
  (try
     for _ = 2 to size do
       t.workers <- Domain.spawn (fun () -> worker_loop t 0) :: t.workers
     done
   with Failure _ -> ());
  t.size <- 1 + List.length t.workers;
  Obs.Counter.add c_spawns (t.size - 1);
  t

let size t = t.size
let is_shutdown t = t.stop

let run_sequential job_counter n f =
  Obs.Counter.incr job_counter;
  for i = 0 to n - 1 do
    f i
  done

let run t ~n f =
  if n < 0 then invalid_arg "Pool.run: negative range";
  if t.stop then invalid_arg "Pool.run: pool is shut down";
  if n = 0 then ()
  else if !(Domain.DLS.get in_work_item) then run_sequential c_nested_jobs n f
  else if t.size = 1 || n = 1 then run_sequential c_seq_jobs n f
  else begin
    (* Several chunks per participant so an unlucky expensive chunk is
       absorbed by the others instead of serialising the job. *)
    let chunk = max 1 (1 + ((n - 1) / (t.size * 4))) in
    let n_chunks = 1 + ((n - 1) / chunk) in
    let job =
      { fn = f;
        n;
        chunk;
        n_chunks;
        cursor = Atomic.make 0;
        remaining = Atomic.make n_chunks;
        error = Atomic.make None }
    in
    Obs.Counter.incr c_jobs;
    Obs.Span.with_ (t.name ^ ".run")
      ~args:
        [ ("n", string_of_int n);
          ("workers", string_of_int t.size);
          ("chunks", string_of_int n_chunks) ]
    @@ fun () ->
    Mutex.lock t.lock;
    t.job <- Some job;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    participate t job;
    Mutex.lock t.lock;
    while Atomic.get job.remaining > 0 do
      Condition.wait t.finished t.lock
    done;
    t.job <- None;
    Mutex.unlock t.lock;
    match Atomic.get job.error with
    | Some (Faultinj.Injected { site = "pool.job"; _ }) ->
        (* An injected worker failure, not a bug in [f]: degrade to a
           sequential retry on the submitter.  Work items are required
           to be idempotent (pure writes of deterministic values into
           index-disjoint slots), so re-running already-completed
           indices reproduces the same state bit-for-bit. *)
        Obs.Counter.incr c_degraded;
        Faultinj.recovered "pool.job";
        Faultinj.suppressed (fun () -> run_sequential c_seq_jobs n f)
    | Some e -> raise e
    | None -> ()
  end

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.wake;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join workers

let with_pool ?name ~domains f =
  let t = create ?name ~domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

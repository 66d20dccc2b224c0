(* Persistent domain pool with fork-join parallel regions.

   Models the static worker-per-processor execution of the paper's
   machines: a parallel region runs one closure per worker (the caller
   doubles as worker 0), and consecutive regions are separated by an
   implicit join, like the barriers between parallel loop nests.

   The pool is built to be *reused*: one pool serves every phase and
   step of a simulated run, and every candidate of an autotuning
   search, instead of paying a domain spawn/join per invocation
   (Domain.spawn is ~100x the cost of a condvar wake-up).  Regions are
   exception-safe — a closure that raises does not strand the join; the
   first exception is re-raised on the caller after all workers have
   finished the region. *)

type t = {
  nworkers : int;
  spins : int;  (* rounds a waiter polls before it parks *)
  m : Mutex.t;
  cv_job : Condition.t;
  cv_done : Condition.t;
  epoch : int Atomic.t;  (* regions started *)
  mutable job : int -> unit;
  remaining : int Atomic.t;  (* spawned workers yet to finish the region *)
  mutable failure : exn option;  (* first exception of the region *)
  shutdown : bool Atomic.t;
  mutable domains : unit Domain.t list;
}

(* A waiter polls for this many rounds (~3.6 ms at the ~36 ns a round
   costs on a 2-vCPU Xeon VM), longer than the gaps a measurement loop
   leaves between regions, before it parks.  With more workers than
   cores a spinner would burn the timeslice a peer needs, so it parks
   almost at once, as libgomp does. *)
let spin_rounds = 100_000
let oversubscribed_spin_rounds = 100

(* Run one region's job, funnelling any exception into [t.failure]
   (first one wins) so the join below can re-raise it on the caller.
   A worker that raised keeps serving later regions. *)
let run_job t job w =
  match job w with
  | () -> ()
  | exception e ->
    Mutex.lock t.m;
    if t.failure = None then t.failure <- Some e;
    Mutex.unlock t.m

(* Wait until [ready ()]: poll it, then park on [cv].  Whoever makes
   [ready] true broadcasts [cv] under [t.m] afterwards, and a parking
   waiter checks [ready] under [t.m], so no wake-up is lost. *)
let await t cv ready =
  let n = ref t.spins in
  while !n > 0 && not (ready ()) do
    Domain.cpu_relax ();
    decr n
  done;
  if not (ready ()) then begin
    Mutex.lock t.m;
    while not (ready ()) do
      Condition.wait cv t.m
    done;
    Mutex.unlock t.m
  end

let signal t cv =
  Mutex.lock t.m;
  Condition.broadcast cv;
  Mutex.unlock t.m

(* A worker takes the job without the mutex: the caller writes [t.job]
   before it bumps [t.epoch], and writes it again only after every
   worker has finished the region. *)
let worker_loop t w =
  let seen = ref 0 in
  let ready () = Atomic.get t.shutdown || Atomic.get t.epoch <> !seen in
  while
    await t t.cv_job ready;
    not (Atomic.get t.shutdown)
  do
    seen := Atomic.get t.epoch;
    run_job t t.job w;
    if Atomic.fetch_and_add t.remaining (-1) = 1 then signal t t.cv_done
  done

let create nworkers =
  if nworkers <= 0 then invalid_arg "Pool.create: nworkers <= 0";
  let t =
    {
      nworkers;
      spins =
        (if nworkers > Domain.recommended_domain_count () then
           oversubscribed_spin_rounds
         else spin_rounds);
      m = Mutex.create ();
      cv_job = Condition.create ();
      cv_done = Condition.create ();
      epoch = Atomic.make 0;
      job = ignore;
      remaining = Atomic.make 0;
      failure = None;
      shutdown = Atomic.make false;
      domains = [];
    }
  in
  t.domains <-
    List.init (nworkers - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let size t = t.nworkers

(* Run [f w] on every worker w (0 .. nworkers-1); worker 0 is the
   caller.  Returns when all workers have finished (join); re-raises
   the region's first exception, if any, after the join. *)
let run t f =
  if t.nworkers = 1 then f 0
  else begin
    t.job <- f;
    Atomic.set t.remaining (t.nworkers - 1);
    Atomic.incr t.epoch;
    signal t t.cv_job;
    run_job t f 0;
    await t t.cv_done (fun () -> Atomic.get t.remaining = 0);
    let failure = t.failure in
    t.failure <- None;
    match failure with None -> () | Some e -> raise e
  end

(* Self-scheduled parallel for: workers repeatedly claim the next
   [chunk] indices from a shared atomic counter until the range is
   drained.  Unlike static blocking, load imbalance (e.g. a simulated
   schedule whose peeled-tail processors carry far less work than the
   fused-phase ones) costs at most one chunk of idle time per worker. *)
let dynamic_for ?(chunk = 1) t ~lo ~hi f =
  if chunk <= 0 then invalid_arg "Pool.dynamic_for: chunk <= 0";
  if lo <= hi then
    if t.nworkers = 1 then
      for i = lo to hi do
        f i
      done
    else begin
      let next = Atomic.make lo in
      run t (fun _w ->
          let continue_ = ref true in
          while !continue_ do
            let bs = Atomic.fetch_and_add next chunk in
            if bs > hi then continue_ := false
            else
              for i = bs to min hi (bs + chunk - 1) do
                f i
              done
          done)
    end

let shutdown t =
  Atomic.set t.shutdown true;
  signal t t.cv_job;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool nworkers f =
  let t = create nworkers in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

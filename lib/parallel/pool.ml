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
  m : Mutex.t;
  cv_job : Condition.t;
  cv_done : Condition.t;
  mutable epoch : int;
  mutable job : int -> unit;
  mutable remaining : int;
  mutable failure : exn option;  (* first exception of the region *)
  mutable shutdown : bool;
  mutable domains : unit Domain.t list;
}

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

let worker_loop t w =
  let my_epoch = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock t.m;
    while (not t.shutdown) && t.epoch = !my_epoch do
      Condition.wait t.cv_job t.m
    done;
    if t.shutdown then begin
      Mutex.unlock t.m;
      continue_ := false
    end
    else begin
      my_epoch := t.epoch;
      let job = t.job in
      Mutex.unlock t.m;
      run_job t job w;
      Mutex.lock t.m;
      t.remaining <- t.remaining - 1;
      if t.remaining = 0 then Condition.broadcast t.cv_done;
      Mutex.unlock t.m
    end
  done

let create nworkers =
  if nworkers <= 0 then invalid_arg "Pool.create: nworkers <= 0";
  let t =
    {
      nworkers;
      m = Mutex.create ();
      cv_job = Condition.create ();
      cv_done = Condition.create ();
      epoch = 0;
      job = ignore;
      remaining = 0;
      failure = None;
      shutdown = false;
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
    Mutex.lock t.m;
    t.failure <- None;
    t.job <- f;
    t.remaining <- t.nworkers - 1;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.cv_job;
    Mutex.unlock t.m;
    run_job t f 0;
    Mutex.lock t.m;
    while t.remaining > 0 do
      Condition.wait t.cv_done t.m
    done;
    let failure = t.failure in
    t.failure <- None;
    Mutex.unlock t.m;
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
  Mutex.lock t.m;
  t.shutdown <- true;
  Condition.broadcast t.cv_job;
  Mutex.unlock t.m;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool nworkers f =
  let t = create nworkers in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

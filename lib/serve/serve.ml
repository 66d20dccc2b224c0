(* The simulation daemon (see serve.mli for the architecture).

   Concurrency layout:
   - the accept loop and the per-connection handlers are systhreads
     (I/O bound; blocking reads release the runtime lock);
   - misses are computed on [workers] dedicated domains feeding from
     the Drr queue, each simulation run serially on its domain
     (jobs 1) — the same across-not-within discipline as
     Batch.run_with;
   - a ticker systhread streams Progress frames for running jobs.

   Every socket write goes through [send], which serialises writers
   (reader thread acks, worker results, ticker progress) on the
   connection's mutex and downgrades any write failure to "connection
   is dead" — a vanished client must never take a worker down. *)

module Sim = Lf_machine.Sim
module Exec = Lf_machine.Exec
module Batch = Lf_batch.Batch
module Run_opts = Lf_batch.Run_opts
module Obs = Lf_obs.Obs

type config = {
  socket : string;
  workers : int;
  max_inflight : int;
  max_client_queue : int;
  quantum : int;
  store_dir : string option;
  progress_interval_s : float;
  verbose : bool;
}

let default_socket () =
  match Sys.getenv_opt "LF_SERVE_SOCKET" with
  | Some s when s <> "" -> s
  | _ -> "_lf_serve.sock"

let default_config () =
  {
    socket = default_socket ();
    workers = max 2 (Exec.default_jobs ());
    max_inflight = 64;
    max_client_queue = 8;
    quantum = 4;
    store_dir = None;
    progress_interval_s = 0.5;
    verbose = false;
  }

type conn = {
  fd : Unix.file_descr;
  wmu : Mutex.t;  (* serialises writers; also guards [alive] *)
  cid : int;  (* Drr client id *)
  scope : Batch.Counters.scope;
  mutable alive : bool;
}

type job = {
  jseq : int;  (* server-unique id, keys the running-job table *)
  jrid : int;  (* client's correlation id *)
  jreq : Sim.request;
  jconn : conn;
  jsink : Obs.sink;
  mutable jstart : float;  (* set by the worker when the run begins *)
}

type t = {
  cfg : config;
  store : Batch.Store.t;
  queue : job Drr.t;
  listener : Unix.file_descr;
  stop_req : bool Atomic.t;  (* accept loop + wait observe this *)
  draining : bool Atomic.t;  (* refuse new work *)
  teardown : bool Atomic.t;  (* ticker exits *)
  seq : int Atomic.t;
  (* stats *)
  n_accepted : int Atomic.t;
  n_overloaded : int Atomic.t;
  n_rejected : int Atomic.t;
  n_served_hit : int Atomic.t;
  n_served_computed : int Atomic.t;
  (* registries *)
  mu : Mutex.t;
  conns : (int, conn) Hashtbl.t;  (* cid -> conn *)
  running : (int, job) Hashtbl.t;  (* jseq -> job *)
  mutable conn_threads : Thread.t list;
  mutable accept_thread : Thread.t option;
  mutable worker_domains : unit Domain.t list;
  mutable ticker_thread : Thread.t option;
  stop_mu : Mutex.t;
  mutable stopped : bool;
}

let log t fmt =
  if t.cfg.verbose then Printf.eprintf ("lf_serve: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let now () = Unix.gettimeofday ()

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* Write one frame to a connection; any failure (EPIPE after the peer
   vanished, a closed fd) just marks the connection dead.  The caller
   holds [conn.wmu]. *)
let send_unlocked t conn msg =
  if conn.alive then
    try Wire.write_frame conn.fd (Wire.server_msg_to_payload msg)
    with _ ->
      conn.alive <- false;
      log t "connection %d: write failed, marking dead" conn.cid

let send t conn msg =
  Mutex.lock conn.wmu;
  send_unlocked t conn msg;
  Mutex.unlock conn.wmu

let stats t =
  let st = Batch.Store.stats t.store in
  [
    ("accepted", Atomic.get t.n_accepted);
    ("overloaded", Atomic.get t.n_overloaded);
    ("rejected", Atomic.get t.n_rejected);
    ("served_hit", Atomic.get t.n_served_hit);
    ("served_computed", Atomic.get t.n_served_computed);
    ("queued", Drr.queued t.queue);
    ("outstanding", Drr.outstanding t.queue);
    ("clients", locked t.mu (fun () -> Hashtbl.length t.conns));
    ("workers", t.cfg.workers);
    ("store_entries", st.Batch.Store.entries);
    ("store_bytes", st.Batch.Store.bytes);
    ("draining", if Atomic.get t.draining then 1 else 0);
  ]

(* ------------------------------------------------------------------ *)
(* Request handling (connection thread).                               *)

let handle_request t conn ~rid req =
  if Atomic.get t.draining then begin
    Atomic.incr t.n_overloaded;
    send t conn (Wire.Overloaded { rid; reason = "server is draining" })
  end
  else
    (* fast path: a warm hit is answered here, on the connection's own
       thread — the admission queue and the worker domains never see
       it *)
    match Batch.try_store ~scope:conn.scope t.store req with
    | Some res ->
      Atomic.incr t.n_served_hit;
      send t conn (Wire.Accepted { rid; position = 0 });
      send t conn
        (Wire.Result { rid; from_store = true; wall_s = 0.0; result = res })
    | None -> (
      let job =
        {
          jseq = Atomic.fetch_and_add t.seq 1;
          jrid = rid;
          jreq = req;
          jconn = conn;
          jsink = Obs.create ();
          jstart = now ();
        }
      in
      (* admit and ack under the write mutex: a worker can dequeue,
         compute and try to send the Result the instant submit returns,
         and the ack must still hit the wire first *)
      Mutex.lock conn.wmu;
      (match
         Drr.submit t.queue ~client:conn.cid ~cost:req.Sim.steps job
       with
      | Ok position ->
        Atomic.incr t.n_accepted;
        send_unlocked t conn (Wire.Accepted { rid; position })
      | Error reject ->
        Atomic.incr t.n_overloaded;
        send_unlocked t conn
          (Wire.Overloaded { rid; reason = Drr.reject_to_string reject }));
      Mutex.unlock conn.wmu)

(* Best-effort rid recovery from a payload that failed to parse, so the
   Rejected reply correlates when it can. *)
let rid_hint payload =
  if String.length payload > 1 && payload.[0] = 'R' then
    match String.index_opt payload '\n' with
    | Some i -> (
      match int_of_string_opt (String.trim (String.sub payload 1 (i - 1))) with
      | Some rid when rid >= 0 -> rid
      | _ -> 0)
    | None -> 0
  else 0

let conn_cleanup t conn =
  Mutex.lock conn.wmu;
  conn.alive <- false;
  Mutex.unlock conn.wmu;
  Drr.unregister t.queue conn.cid;
  locked t.mu (fun () -> Hashtbl.remove t.conns conn.cid);
  (try Unix.close conn.fd with _ -> ());
  log t "connection %d closed" conn.cid

let conn_loop t conn =
  let rec loop () =
    match Wire.read_frame conn.fd with
    | Error Wire.Eof -> ()
    | Error e ->
      (* a stream that lost frame sync cannot be resumed: tell the
         client why (best effort) and drop only this connection *)
      send t conn
        (Wire.Rejected { rid = 0; reason = Wire.read_error_to_string e })
    | Ok payload -> (
      match Wire.client_msg_of_payload payload with
      | Error reason ->
        (* well-framed garbage: reject it, keep the connection *)
        Atomic.incr t.n_rejected;
        send t conn (Wire.Rejected { rid = rid_hint payload; reason });
        loop ()
      | Ok Wire.Ping ->
        send t conn Wire.Pong;
        loop ()
      | Ok Wire.Stats_query ->
        send t conn
          (Wire.Stats_reply
             (stats t
             @ [
                 ("conn_hits", Batch.Counters.hits conn.scope);
                 ("conn_computed", Batch.Counters.computed conn.scope);
               ]));
        loop ()
      | Ok (Wire.Request { rid; req }) ->
        handle_request t conn ~rid req;
        loop ())
  in
  Fun.protect ~finally:(fun () -> conn_cleanup t conn) loop

(* ------------------------------------------------------------------ *)
(* Worker domains.                                                     *)

(* Unified dispatch options for a worker domain: serial inside the
   domain (across-not-within), persisting to the daemon's store root.
   Batch.store_of_opts memoises handles per root, so this resolves to
   the same handle as t.store. *)
let worker_opts t =
  Run_opts.default
  |> Run_opts.with_jobs 1
  |> Run_opts.with_store (Run_opts.Store_in t.cfg.store_dir)

let worker_loop t =
  let rec loop () =
    match Drr.next t.queue with
    | None -> ()
    | Some job ->
      job.jstart <- now ();
      locked t.mu (fun () -> Hashtbl.replace t.running job.jseq job);
      let res =
        (* the request was a miss at admission, but a concurrent worker
           or another process may have computed the digest since *)
        match Batch.try_store ~scope:job.jconn.scope t.store job.jreq with
        | Some r -> Ok (r, true)
        | None -> (
          match
            Batch.run_one_with ~scope:job.jconn.scope
              (Run_opts.with_sink job.jsink (worker_opts t))
              job.jreq
          with
          | r -> Ok (r, false)
          | exception e -> Error (Printexc.to_string e))
      in
      locked t.mu (fun () -> Hashtbl.remove t.running job.jseq);
      Drr.job_done t.queue;
      (match res with
      | Ok (r, from_store) ->
        if from_store then Atomic.incr t.n_served_hit
        else Atomic.incr t.n_served_computed;
        send t job.jconn
          (Wire.Result
             {
               rid = job.jrid;
               from_store;
               wall_s = now () -. job.jstart;
               result = r;
             })
      | Error m ->
        Atomic.incr t.n_rejected;
        send t job.jconn
          (Wire.Rejected { rid = job.jrid; reason = "simulation failed: " ^ m }));
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Progress ticker.                                                    *)

(* Sample a running job's sink.  The computing domain owns the sink's
   counters; these are racy (memory-safe, approximately-current) reads
   used only for display — the OCaml memory model guarantees we see
   some previously-written value, never a torn one. *)
let progress_of job =
  let sink = job.jsink in
  let tot = Obs.totals sink in
  let phases =
    List.fold_left
      (fun n e -> match e with Obs.Phase_end _ -> n + 1 | _ -> n)
      0 (Obs.events sink)
  in
  {
    Wire.g_rid = job.jrid;
    g_phases = phases;
    g_refs = tot.Obs.t_refs;
    g_misses = tot.Obs.t_misses;
    g_elapsed_s = now () -. job.jstart;
  }

let ticker_loop t =
  let interval = t.cfg.progress_interval_s in
  if interval > 0.0 then
    while not (Atomic.get t.teardown) do
      Thread.delay (Float.min interval 0.25);
      if not (Atomic.get t.teardown) then begin
        let jobs = locked t.mu (fun () ->
            Hashtbl.fold (fun _ j acc -> j :: acc) t.running [])
        in
        List.iter
          (fun job ->
            if now () -. job.jstart >= interval then
              send t job.jconn (Wire.Progress (progress_of job)))
          jobs
      end
    done

(* ------------------------------------------------------------------ *)
(* Accept loop, startup, drain.                                        *)

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.stop_req) then begin
      (match Unix.select [ t.listener ] [] [] 0.25 with
      | [ _ ], _, _ -> (
        match Unix.accept t.listener with
        | fd, _ ->
          let conn =
            {
              fd;
              wmu = Mutex.create ();
              cid = Drr.register t.queue;
              scope = Batch.Counters.create ();
              alive = true;
            }
          in
          locked t.mu (fun () -> Hashtbl.replace t.conns conn.cid conn);
          let th = Thread.create (fun () -> conn_loop t conn) () in
          locked t.mu (fun () -> t.conn_threads <- th :: t.conn_threads);
          log t "connection %d accepted" conn.cid
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

let bind_socket path =
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind listener (Unix.ADDR_UNIX path) with
  | Unix.Unix_error (Unix.EADDRINUSE, _, _) -> (
    (* stale socket file from a crashed server, or a live one? *)
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      try
        Unix.connect probe (Unix.ADDR_UNIX path);
        true
      with _ -> false
    in
    (try Unix.close probe with _ -> ());
    if live then begin
      (try Unix.close listener with _ -> ());
      failwith ("lf_serve: another server is listening on " ^ path)
    end
    else begin
      (try Unix.unlink path with _ -> ());
      Unix.bind listener (Unix.ADDR_UNIX path)
    end)
  | e ->
    (try Unix.close listener with _ -> ());
    raise e);
  Unix.listen listener 64;
  listener

let start cfg =
  (* a disconnected client must surface as EPIPE, not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  (* open through the memoised policy resolver so the daemon's handle
     is the same one worker dispatch (run_one_with) resolves to — one
     handle per root means one consistent stats view *)
  let store =
    match
      Batch.store_of_opts
        (Run_opts.make ~store:(Run_opts.Store_in cfg.store_dir) ())
    with
    | Some st -> st
    | None -> assert false
  in
  let queue =
    Drr.create ~quantum:cfg.quantum ~max_inflight:cfg.max_inflight
      ~max_client_queue:cfg.max_client_queue ()
  in
  let listener = bind_socket cfg.socket in
  let t =
    {
      cfg;
      store;
      queue;
      listener;
      stop_req = Atomic.make false;
      draining = Atomic.make false;
      teardown = Atomic.make false;
      seq = Atomic.make 0;
      n_accepted = Atomic.make 0;
      n_overloaded = Atomic.make 0;
      n_rejected = Atomic.make 0;
      n_served_hit = Atomic.make 0;
      n_served_computed = Atomic.make 0;
      mu = Mutex.create ();
      conns = Hashtbl.create 16;
      running = Hashtbl.create 16;
      conn_threads = [];
      accept_thread = None;
      worker_domains = [];
      ticker_thread = None;
      stop_mu = Mutex.create ();
      stopped = false;
    }
  in
  t.worker_domains <-
    List.init (max 1 cfg.workers) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t.ticker_thread <- Some (Thread.create (fun () -> ticker_loop t) ());
  log t "listening on %s (%d workers, max_inflight %d, per-client queue %d)"
    cfg.socket cfg.workers cfg.max_inflight cfg.max_client_queue;
  t

let request_stop t =
  Atomic.set t.draining true;
  Atomic.set t.stop_req true

let wait t =
  while not (Atomic.get t.stop_req) do
    Thread.delay 0.1
  done

let stop t =
  let first =
    locked t.stop_mu (fun () ->
        if t.stopped then false
        else begin
          t.stopped <- true;
          true
        end)
  in
  if first then begin
    request_stop t;
    (* 1. no new connections *)
    Option.iter Thread.join t.accept_thread;
    (* 2. no new admissions (conn threads now answer Overloaded); the
       queued and running jobs finish and their results are sent *)
    Drr.drain t.queue;
    List.iter Domain.join t.worker_domains;
    t.worker_domains <- [];
    (* 3. ticker off *)
    Atomic.set t.teardown true;
    Option.iter Thread.join t.ticker_thread;
    (* 4. unblock idle readers and join the connection threads *)
    let conns = locked t.mu (fun () ->
        Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [])
    in
    List.iter
      (fun c -> try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ())
      conns;
    let threads = locked t.mu (fun () -> t.conn_threads) in
    List.iter Thread.join threads;
    (* 5. release the socket *)
    (try Unix.close t.listener with _ -> ());
    (try Unix.unlink t.cfg.socket with _ -> ());
    log t "drained: %d hits, %d computed, %d overloaded, %d rejected"
      (Atomic.get t.n_served_hit)
      (Atomic.get t.n_served_computed)
      (Atomic.get t.n_overloaded)
      (Atomic.get t.n_rejected)
  end

let run cfg =
  let t = start cfg in
  let on_signal = Sys.Signal_handle (fun _ -> request_stop t) in
  (try Sys.set_signal Sys.sigterm on_signal with _ -> ());
  (try Sys.set_signal Sys.sigint on_signal with _ -> ());
  wait t;
  stop t

(** The simulation service: a long-running daemon that answers
    {!Lf_machine.Sim.request}s over a Unix-domain socket.

    {b Two paths.}  A request that the persistent result store can
    answer is served on the {e fast path}, synchronously on the
    connection's own thread — [Accepted {position = 0}] then the
    [Result], never touching the admission queue or any worker domain.
    A miss is admitted (or refused with [Overloaded]) into a
    {!Drr}-scheduled queue consumed by a fixed set of worker domains,
    each computing one request at a time with
    {!Lf_batch.Batch.run_one_with} at jobs 1 — the service
    parallelises {e across} requests, not within one, exactly like the
    batch orchestrator — and persisting the result, so every computed
    answer also warms the store for future fast-path hits.

    {b Streaming.}  Each admitted request is acked immediately with its
    queue position; while it computes, a ticker thread samples the
    [lf_obs] sink attached to the running simulation and streams
    [Progress] frames (phases completed, references, misses).  The
    samples are racy reads of counters owned by the computing domain —
    memory-safe in OCaml, approximate by design, and never used for
    anything but display.

    {b Robustness.}  A malformed payload gets a [Rejected] reply and
    the connection lives on; a broken frame drops only that connection;
    a client disconnecting mid-request discards its queued jobs and
    its running job's result falls on the floor (still persisted to
    the store).

    {b Drain.}  {!stop} (wired to SIGINT/SIGTERM by {!run}) stops
    accepting connections and admissions, finishes every queued and
    running job, delivers the results, then shuts down workers,
    connections and the socket.  Store writes are atomic per entry, so
    there is nothing else to flush. *)

module Sim = Lf_machine.Sim

type config = {
  socket : string;  (** Unix-domain socket path *)
  workers : int;  (** worker domains computing misses *)
  max_inflight : int;  (** server-wide outstanding-job bound *)
  max_client_queue : int;  (** per-connection queued-request bound *)
  quantum : int;  (** DRR credit per round-robin visit *)
  store_dir : string option;  (** result store (default {!Lf_batch.Batch.Store.default_dir}) *)
  progress_interval_s : float;  (** period of [Progress] frames; [0.] disables *)
  verbose : bool;  (** log connections/jobs to stderr *)
}

val default_config : unit -> config
(** Socket from [$LF_SERVE_SOCKET] (else ["_lf_serve.sock"]); workers
    [max 2 (Exec.default_jobs ())]; [max_inflight 64];
    [max_client_queue 8]; [quantum 4]; progress every 0.5 s. *)

type t

val start : config -> t
(** Bind the socket (refusing to start if another live server holds
    it; a stale socket file left by a crash is replaced) and spawn the
    accept thread, worker domains and progress ticker.  Returns
    immediately — embeddable in tests and benches.  Ignores SIGPIPE
    process-wide (a disconnected client must be an [EPIPE] error, not
    a process kill). *)

val stop : t -> unit
(** Graceful drain as described above.  Idempotent; blocks until every
    thread and domain has been joined. *)

val request_stop : t -> unit
(** Async-signal-safe stop request: flips a flag that {!wait} (and the
    accept loop) observe.  The actual teardown happens in {!stop}. *)

val wait : t -> unit
(** Block until {!request_stop} (e.g. from a signal handler). *)

val stats : t -> (string * int) list
(** Server-wide counters: accepted / overloaded / rejected /
    served_hit / served_computed / queued / inflight / clients plus
    store entries and bytes — the payload of [Stats_reply]. *)

val run : config -> unit
(** [start], install SIGINT/SIGTERM handlers that {!request_stop},
    {!wait}, then {!stop}: the body of [lfc serve]. *)

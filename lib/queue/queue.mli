(** Multi-process work queue over a shared directory: fan a sweep's
    store misses out to N worker processes (DESIGN §12).

    A sweep used to be bounded by one process's domains.  The queue
    turns the filesystem the store already shares into a coordination
    medium: an enqueuer writes one task file per missing request
    digest, any number of [lfc worker] processes (local or on any host
    sharing the filesystem) claim tasks by atomic rename, compute them
    through {!Lf_batch.Batch.run_one_with} and publish to the store, and
    the enqueuer waits for the queue to drain — after which the sweep
    is pure store hits.

    {b Protocol.}  Under the queue root:
    - [tasks/<digest>.task] — pending; content is the request's
      {!Lf_machine.Sim.canonical} text, written atomically;
    - [leases/<digest>.<wid>.lease] — claimed by worker [wid]; the
      file's mtime is the worker's heartbeat, refreshed from a thread
      well inside the lease ttl;
    - [failed/<digest>.err] — terminal failures, never retried;
    - [fingerprints] — the enqueuer's {!Lf_machine.Sim.Fingerprint}
      view, adopted by workers so digests mean the same thing in every
      process.

    Claiming is [rename(tasks/d.task, leases/d.w.lease)]: exactly one
    racing worker's rename succeeds, the rest get [ENOENT] and move
    on.  A worker that dies mid-task stops heartbeating; when the
    lease's mtime age exceeds the ttl any other worker renames it back
    into [tasks/] and the task is re-run.  Lease stealing is
    {e idempotent by construction}: results are content-addressed and
    published atomically, so the worst interleaving recomputes a
    result and overwrites it with identical bytes — wasted work, never
    a wrong answer.  Completion deletes the lease; a vanished lease
    ([ENOENT]) is tolerated everywhere. *)

type t

val open_ : dir:string -> t
(** Open (creating if necessary) the queue rooted at [dir]. *)

val dir : t -> string

val fingerprint_file : t -> string
(** Path of the shared fingerprint view
    ({!Lf_machine.Sim.Fingerprint.save_file} format). *)

(** {1 Enqueue} *)

type enqueue_outcome =
  [ `Enqueued  (** task file written *)
  | `Already_queued  (** pending or currently leased *)
  | `Already_failed  (** terminally failed; not retried *)
  ]

val enqueue : t -> Lf_machine.Sim.request -> enqueue_outcome
(** Offer one request to the queue.  Duplicate enqueues (including the
    race with a lease completing concurrently) are harmless: the task
    recomputes and republishes identical bytes. *)

type enqueue_stats = {
  e_total : int;  (** requests submitted *)
  e_unique : int;  (** distinct digests among them *)
  e_hits : int;  (** already answered by the store *)
  e_enqueued : int;  (** task files written *)
  e_queued_before : int;  (** already pending or leased *)
  e_failed_before : int;  (** terminally failed earlier *)
}

val enqueue_misses :
  ?save_fingerprints:bool ->
  ?cold:bool ->
  t ->
  store:Lf_batch.Batch.Store.t ->
  Lf_machine.Sim.request list ->
  enqueue_stats
(** Deduplicate by digest and enqueue every request the store cannot
    answer ([cold] skips the store probe and enqueues everything).  First writes the live fingerprint view to
    {!fingerprint_file} (unless [save_fingerprints:false]) so workers
    joining at any point interpret digests under the enqueuer's view.
    This is also the [--watch] re-enqueue primitive: after a
    fingerprint override changes digests, exactly the now-missing
    requests are enqueued again. *)

(** {1 Worker} *)

val default_ttl : float
(** Default lease time-to-live in seconds (10.0). *)

val claim : wid:string -> t -> (string * string * string) option
(** Claim one pending task by atomic rename:
    [(digest, canonical_text, lease_path)].  Exposed for tests; normal
    use is {!worker}. *)

val reclaim_expired : ttl:float -> t -> int
(** Rename every lease whose heartbeat mtime is older than [ttl]
    seconds back into the pending set; returns the number reclaimed. *)

type worker_stats = {
  w_claimed : int;
  w_computed : int;  (** simulations actually run *)
  w_hits : int;  (** claims already answered by the store *)
  w_failed : int;
  w_reclaimed : int;  (** expired leases returned to the queue *)
}

val worker :
  ?wid:string ->
  ?ttl:float ->
  ?poll_s:float ->
  ?idle_timeout_s:float ->
  ?opts:Lf_batch.Run_opts.t ->
  store:Lf_batch.Batch.Store.t ->
  t ->
  worker_stats
(** Run a worker loop: adopt the queue's fingerprint view, reclaim
    expired leases, claim, compute ({!Lf_batch.Batch.run_one_with}, which
    re-probes the store and publishes the result), delete the lease;
    repeat.  A claim whose canonical text does not parse, whose digest
    disagrees with this process's fingerprint view, or whose
    computation raises is recorded in [failed/] and never retried.

    Without [idle_timeout_s] the worker {e drains}: it returns once no
    tasks are pending {e and} no leases are outstanding (waiting out —
    and reclaiming — other workers' leases if they die).  With
    [idle_timeout_s] it keeps polling until that much idle time
    passes, for long-lived workers fed by repeated sweeps.  [wid]
    defaults to a pid-derived id; it must not contain ['.'], ['/'] or
    whitespace.

    [opts] is the unified {!Lf_batch.Run_opts.t}: its [jobs] field
    applies to each computation.  The other policy fields do not apply
    here — each task's engine is inside its request, and the queue's
    store is the [store] argument. *)

(** {1 Observation} *)

type qstatus = { pending : int; leased : int; failed : int }

val status : t -> qstatus

val pending_digests : t -> string list

val failures : t -> (string * string) list
(** [(digest, error text)] of every terminal failure. *)

val wait : ?poll_s:float -> ?timeout_s:float -> t -> [ `Drained | `Timeout ]
(** Block until the queue is drained (no pending tasks, no outstanding
    leases) or [timeout_s] elapses. *)

val pp_status : Format.formatter -> qstatus -> unit
val pp_worker_stats : Format.formatter -> worker_stats -> unit

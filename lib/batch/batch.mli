(** Batch simulation with a persistent, content-addressed result store.

    Every sweep in the system (bench experiments, [lfc tune], the
    qcheck matrices) used to re-simulate identical configurations from
    scratch on each invocation; the only memoisation was in-memory and
    per-process.  [Lf_batch] adds the missing layers on top of
    {!Lf_machine.Sim.request} — the value that {e names} a simulation:

    - {!Store}: an on-disk map from request digest to serialised
      {!Lf_machine.Exec.result}, shared by concurrent processes;
    - {!run_with}: a batch orchestrator that dedups a request list by
      digest, answers hits from the store, and shards the misses across
      host domains.

    {b Cache-key discipline} (see also sim.mli).  Only requests are
    cacheable, and a request contains everything that determines the
    simulated observables.  Three things deliberately live outside the
    key and therefore cannot be served stale: [jobs]/[pool] (the engine
    is bit-identical for every host-domain count), an attached [sink]
    (observation is passive, but a {e replayed} result cannot populate
    one — so a request executed with a per-run sink is always computed,
    though its result is still stored for future sink-less hits), and
    [Full]-mode array contents (the store persists observables, not
    multi-megabyte float arrays, so [Full] requests are never answered
    from the store). *)

module Sim = Lf_machine.Sim
module Exec = Lf_machine.Exec

(** {1 The persistent store} *)

module Store : sig
  type t

  val default_dir : unit -> string
  (** [$LF_CACHE_DIR] when set, else ["_lf_cache"] in the current
      directory. *)

  val open_ : ?dir:string -> unit -> t
  (** Open (creating if necessary) the store rooted at [dir] (default
      {!default_dir}).  Opening never scans the directory; entries are
      addressed directly by digest. *)

  val dir : t -> string

  val cacheable : Sim.request -> bool
  (** Explicit allow-list of persistable requests: [true] exactly for
      the pure simulation modes ([Miss_only], [Run_compressed]), whose
      observables are deterministic functions of the request.
      [Full]-mode requests are excluded (their observable is the array
      store, which is not persisted), and measured wall-clock results
      from the native execution backend are excluded {e by type}: a
      native timing is never an [Exec.result] and has no request digest
      to be stored under.  Host time is nondeterministic, so replaying
      it from a content-addressed cache would be a lie — the [wall_s]
      in an {!outcome} is measured around the store and reports [0.0]
      for warm hits.  (DESIGN §7 states the rule; test/test_batch.ml
      pins it.) *)

  val lookup : t -> Sim.request -> Exec.result option
  (** The persisted result of this request, or [None] on a miss.  A
      corrupt, truncated, stale-salted or otherwise unreadable entry is
      a miss, never an error — concurrent writers and killed processes
      may leave anything on disk.  The returned result carries an empty
      array store (like a [Miss_only] run). *)

  val add : t -> Sim.request -> Exec.result -> bool
  (** Persist a result (atomically: tempfile + rename, so concurrent
      writers of the same digest are safe and readers never observe a
      partial entry).  Returns [false] without writing when the request
      is not {!cacheable}.  I/O failures are swallowed: a read-only or
      full disk degrades the store to a no-op, it does not break the
      simulation. *)

  type stats = {
    entries : int;
    bytes : int;  (** total size of all entries *)
    lookups : int;  (** lookups through this handle *)
    hits : int;  (** hits through this handle *)
  }

  val stats : t -> stats

  type fingerprint_stats = {
    fp_live : (string * string) list;
        (** the process's live fingerprint set
            ({!Sim.Fingerprint.all}) *)
    fp_counts : ((string * string) * int) list;
        (** entry count per (module, version) pair found on disk,
            sorted *)
    fp_stale : int;
        (** entries carrying at least one fingerprint that differs
            from the live set — unreachable by current digests, but
            still occupying bytes until {!gc} *)
    fp_scanned : int;
    fp_unreadable : int;
        (** entries without parseable fingerprint metadata *)
  }

  val fingerprint_stats : t -> fingerprint_stats
  (** Scan every entry's fingerprint header lines: how much of the
      store is live under the current module versions and how much is
      stale, per fingerprint — visible {e before} deciding to gc.
      Entries record the fingerprints they were computed under
      ({!Sim.Fingerprint.of_request}); a digest lookup never consults
      them (the digest already folds them in), so this is pure
      reporting. *)

  val gc : max_bytes:int -> t -> int
  (** Delete oldest entries (by modification time) until the store
      holds at most [max_bytes]; returns the number removed. *)

  val clear : t -> int
  (** Delete every entry; returns the number removed. *)
end

(** {1 Counter scopes}

    The process-wide {!hit_count}/{!computed_count} view below is
    useless for per-client accounting in a long-running daemon: every
    connection's traffic lands in the same two integers.  A
    {!Counters.scope} is an independent, resettable hit/computed pair
    that {!run_with}, {!run_one_with} and {!try_store} bump {e in
    addition to} the process-wide view when one is passed — [lfc
    serve] keeps one scope per client connection and reports it in
    that connection's stats. *)

module Counters : sig
  type scope

  val create : unit -> scope
  val hits : scope -> int
  val computed : scope -> int

  val reset : scope -> unit
  (** Zero both counters (e.g. between measurement windows). *)
end

(** {1 Batch execution} *)

type failure =
  | Timed_out of float  (** wall-clock seconds the job actually took *)
  | Crashed of string  (** exception text *)

type outcome = {
  request : Sim.request;
  rdigest : string;
  result : (Exec.result, failure) Stdlib.result;
  from_store : bool;
  wall_s : float;  (** 0.0 for store hits and deduplicated repeats *)
}

type summary = {
  total : int;  (** requests submitted *)
  unique : int;  (** distinct digests among them *)
  hits : int;  (** unique requests answered from the store *)
  computed : int;  (** unique requests simulated *)
  failed : int;  (** unique requests that timed out or crashed *)
  wall_s : float;
}

val run_with :
  ?pool:Lf_parallel.Pool.t ->
  ?scope:Counters.scope ->
  Run_opts.t ->
  Sim.request list ->
  outcome array * summary
(** Execute a batch under one {!Run_opts.t}: engine choices are
    already inside the requests; jobs, store policy (root + cold),
    timeout and sink come from the options.  [pool] and [scope] are
    live host resources and are passed alongside (see run_opts.mli).

    The requests are deduplicated by digest (repeats share the
    representative's outcome); with a store, hits are answered without
    simulating unless the policy is cold ({!Run_opts.Store_cold}),
    which forces recomputation — computed results are persisted either
    way, so a cold run warms the store.  Misses are sharded across up
    to {!Run_opts.jobs_or_default} host domains with self-scheduling
    ([pool] supplies an existing domain pool to run on); each
    simulation inside the batch runs on its worker domain alone, so
    results remain bit-identical to a serial batch.

    [timeout_s] is a per-job wall-clock budget: a simulation that
    exceeds it is reported as {!Timed_out} and its result is neither
    returned nor persisted.  (The check is cooperative — the job runs
    to completion first; domains cannot be killed.)  A job that raises
    is reported as {!Crashed}; neither aborts the rest of the batch,
    and {!results_exn} re-raises the first failure in request order
    after the join — the error-propagation contract of
    {!Lf_parallel.Pool.run}, lifted to batches.

    The options' [sink] is ignored: it is {e not} attached to the
    individual simulations (see the cache-key discipline above — use
    {!run_one_with} for an instrumented run), and the batch's counts
    come back in the {!summary}. *)

val results_exn : outcome array -> Exec.result array
(** The batch's results, raising [Failure] on the first (in request
    order) timeout or crash. *)

val run_one_with :
  ?pool:Lf_parallel.Pool.t ->
  ?scope:Counters.scope ->
  Run_opts.t ->
  Sim.request ->
  Exec.result
(** One request through the store the options name: answered from it
    when possible (a cold policy forces computation), computed with
    {!Lf_machine.Exec.run_opts} under the options' jobs and [pool] and
    persisted otherwise.  Unlike {!run_with}, the options' [sink] here
    {e is} the per-run attribution sink: when one is supplied the
    request is always computed (a replay cannot populate a sink), and
    the fresh result is still persisted.  [timeout_s] does not apply —
    a single synchronous run has no batch to report a timeout into. *)

val store_of_opts : Run_opts.t -> Store.t option
(** The store handle a policy names: [None] for {!Run_opts.Store_off},
    else a handle memoised per resolved root so every consumer of the
    same policy shares one handle (and its {!Store.stats}). *)

val hit_count : unit -> int
val computed_count : unit -> int
(** Process-wide counters of store hits and computed simulations by
    {!run_with}/{!run_one_with}/{!try_store}, for hit/miss reporting
    in harnesses. *)

val try_store :
  ?scope:Counters.scope -> Store.t -> Sim.request -> Exec.result option
(** {!Store.lookup} that also maintains the hit counters (process-wide
    and, when given, [scope]) — the fast-path probe of a service that
    answers warm hits without entering the batch layer at all.  A miss
    counts nothing; the caller decides what to do with it. *)

val pp_summary : Format.formatter -> summary -> unit

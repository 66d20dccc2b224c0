(** Execution-driven simulation of schedules on a simulated
    shared-memory multiprocessor: one cache per processor, a memory
    layout mapping array elements to addresses, and the cycle cost model
    of {!Machine}.  Produces the paper's observables (cycles, misses);
    values are never interpreted ({!Lf_ir.Interp.run} and
    {!Lf_core.Schedule.execute} are the semantic oracles).

    {b Two-level parallelism.}  The {e simulated} processors of a phase
    are independent by construction (the paper's phases are parallel
    loops), so the {e host} can interpret them on several OCaml domains
    concurrently: {!run_opts} with [o_jobs = Some j] maps the schedule's
    P simulated processors onto up to [j] host domains per phase.  Each
    simulated processor's state (cache, TLB, cycle counter, probe) is
    owned by exactly one domain at a time, and every cross-processor
    reduction (phase max, miss sums, event-stream merge) happens after
    the join in simulated-processor order — so the result, including
    the attached sink's contents, is bit-identical for every [jobs]
    value.  Determinism relies on the schedule being legal (no
    dependence between processors within a phase), which is what the
    barrier placement asserts; all schedules built by {!Lf_core.Schedule}
    satisfy it. *)

type result = {
  cycles : float;  (** simulated execution time in cycles *)
  phase_cycles : float array;  (** per-phase maximum over processors *)
  barrier_cycles : float;  (** total barrier cost included in [cycles] *)
  total_refs : int;  (** memory references issued (all processors) *)
  total_misses : int;  (** cache misses (all processors) *)
  cold_misses : int;  (** compulsory misses (all processors) *)
  tlb_misses : int;  (** TLB misses (all processors), 0 when no TLB *)
  proc_misses : int array;  (** per-processor miss counts *)
}

type mode = Sim.mode =
  | Miss_only
      (** scalar address replay: walk every iteration point and replay
          each statement instance's address stream (right-hand-side
          reads in evaluation order, then the write) access by access,
          each access to the cache and then the TLB.  Addresses are
          layout-dependent but value-independent, so the stream alone
          determines every performance observable.  The walk goes row
          by row: when every reference of the nest is in bounds at
          both ends of an innermost row (subscripts are affine, so then
          along all of it), each reference's address is computed once
          at the row's start and advanced by its innermost byte stride;
          guards are still tested at every point.  Other rows, and 0-d
          boxes, compute every address from the subscripts and fail
          with {!Lf_ir.Interp.Out_of_bounds} at the first bad access.
          The counter oracle [Run_compressed] is tested against, and
          its exact fallback. *)
  | Run_compressed
      (** batched line-granular replay over the same box walk as
          [Miss_only]: each row that passes the bounds check is cut at
          guard-interval endpoints into segments, each segment's
          references become [(start, byte stride, count)] runs, and
          the runs advance in lockstep blocks that stay on one cache
          line and one TLB page.  Once an iteration of a block is
          proven steady, the rest of the block fast-forwards in closed
          form (all-hit blocks on any geometry; verbatim-repeat blocks
          on direct-mapped geometry); other iterations run access by
          access.  Rows that fail the check, and 0-d boxes, take
          [Miss_only]'s per-point walk.  Every observable is
          bit-identical to [Miss_only] — counters, cycles, sink
          contents and event stream — only wall-clock changes
          (DESIGN §6b).  The default engine. *)

val proc0_misses : result -> int
(** Misses of processor 0, the paper's "single processor during parallel
    execution" measure (Figures 18, 20). *)

val jobs_of_string : string -> (int, string) Stdlib.result
(** The jobs vocabulary shared by [LF_JOBS] and the CLI's [--jobs]: a
    positive integer, or ["auto"]/["0"] for
    [Domain.recommended_domain_count ()]. *)

val default_jobs : unit -> int
(** The job count used when [o_jobs] is [None]: the last value passed
    to {!set_default_jobs}, else the [LF_JOBS] environment variable
    parsed by {!jobs_of_string}, else [1] (serial). *)

val set_default_jobs : int -> unit
(** Override the default host-domain count for subsequent runs
    (e.g. from a [--jobs] command-line flag). *)

val release_shared_pool : unit -> unit
(** Shut down the internally shared domain pool, if one exists.  The
    pool is created lazily by the first parallel {!run_opts}, reused
    across runs, and shut down automatically at exit; tests use this to
    force a fresh pool. *)

type opts = {
  o_jobs : int option;  (** host domains; [None] means {!default_jobs} *)
  o_pool : Lf_parallel.Pool.t option;  (** existing domain pool to reuse *)
  o_sink : Lf_obs.Obs.sink option;  (** passive attribution sink *)
}
(** Host-side execution options as a single value — the bottom half of
    the unified request-options API.  Everything here is outside the
    request digest by design: the engine is bit-identical for every
    [o_jobs]/[o_pool] choice and a sink is observation, not
    configuration.  The policy half (engine tier, store policy,
    timeout) is [Lf_batch.Run_opts], which lowers onto this record;
    lf_machine cannot see lf_batch, so the two live one layer apart. *)

val default_opts : opts
(** All fields [None]: default jobs, shared pool, no sink. *)

val opts :
  ?jobs:int -> ?pool:Lf_parallel.Pool.t -> ?sink:Lf_obs.Obs.sink -> unit -> opts

val run_opts : opts -> Sim.request -> result
(** [run_opts o req] simulates exactly the configuration [req] names
    under host options [o] — the one entry point of the engine.
    Everything that determines a simulated observable lives inside the
    request (and hence inside {!Sim.digest}); the options are host-side
    knobs the engine guarantees are bit-identity-preserving.

    The schedule runs with one cache per processor on the request's
    layout; [steps] repeats the whole schedule (a sequential time-step
    loop around the parallel loop sequence, with caches persisting
    across steps).  The caches and TLBs are those of the last run on
    the calling domain where their geometry (shape and footprint)
    matches, {!Lf_cache.Cache.reset} first, so no observable depends
    on what ran before; a domain keeps one run's instances at most.

    [o_jobs] (default {!default_jobs}) is the number of host domains
    the simulated processors are mapped onto, clamped to the processor
    count; [1] is the serial engine.  [o_pool] supplies an existing
    {!Lf_parallel.Pool} to run on instead (reused across phases, steps
    and successive runs); without it, parallel runs share one
    internally cached pool.  The result is bit-identical for every
    [o_jobs]/[o_pool] choice.

    [o_sink] attaches an {!Lf_obs.Obs.sink} collecting per-array x
    per-phase x per-processor counters and a structured event stream.
    Attaching a sink never changes the simulation: cycle counts and
    cache statistics are bit-identical with and without it
    (the observer-effect property in test/test_obs.ml), under any
    [o_jobs] count — each domain records into probe-private buffers
    that are merged deterministically at phase end. *)

val breakdown :
  Lf_obs.Obs.sink ->
  by:Lf_obs.Obs.group ->
  (string * Lf_obs.Obs.total) list
(** Attribution tables from a sink recorded by {!run_opts}: counter
    totals grouped by array, phase or processor. *)

val speedup : baseline_cycles:float -> result -> float

(** Two-tier cost model for the autotuner.

    The {b analytic tier} prices a candidate without simulating it: it
    builds the schedule (cheap — boxes, not iterations) and charges the
    machine's per-iteration compute costs, a per-box loop overhead, one
    barrier per phase, and a capacity-miss estimate in the style of
    {!Lf_core.Profit} (a phase whose per-processor data exceeds the
    cache sweeps that data once; layouts prone to cross-conflicts pay a
    multiplicative factor).  It exists to {e rank} candidates for
    pruning, not to predict absolute cycles.

    The {b exact tier} runs the candidate through {!Lf_machine.Exec} on
    the simulated machine — the same simulation the experiments report —
    and is memoised: results are keyed by a structural fingerprint of
    (program, candidate, machine, processor count, steps, depth), so
    re-evaluating a configuration is a hash lookup.  Cold evaluations
    use the simulator's [Run_compressed] engine (cycle and miss counts
    are bit-identical to a full run; only the store, which the tuner
    never reads, is skipped) and are issued as content-addressed
    requests through {!Lf_batch.Batch.run_one_with}, so the caller's
    {!Lf_batch.Run_opts.t} decides their host-domain parallelism and
    whether an on-disk {!Lf_batch.Batch.Store} answers and persists
    them across processes. *)

type exact = {
  e_cycles : float;  (** simulated execution time *)
  e_misses : int;  (** total cache misses, all processors *)
  e_barrier : float;  (** barrier cycles included in [e_cycles] *)
}

type cache
(** Memo table for exact-tier evaluations, shared across searches. *)

val create_cache : unit -> cache

type cache_stats = { hits : int; misses : int; entries : int }
(** [misses] counts cold evaluations (simulations actually run). *)

val stats : cache -> cache_stats

val fingerprint :
  ?depth:int ->
  ?steps:int ->
  machine:Lf_machine.Machine.config ->
  nprocs:int ->
  Lf_ir.Ir.program ->
  Space.candidate ->
  string
(** Structural memo key: digest of the printed program plus the
    candidate, machine geometry/name, processor count, steps, depth. *)

type calibration = (string * float) list
(** Measured miss-inflation factors (misses / compulsory misses) keyed
    by layout tag ({!Space.layout_to_string} vocabulary), recorded from
    an instrumented simulation. *)

val calibration_of_sink : Lf_obs.Obs.sink -> calibration
(** One calibration entry from a profile recorded by
    {!Lf_machine.Exec.run_opts} with a sink: the sink's layout tag
    mapped to its measured miss factor.  Concatenate the results of
    several profiled runs to calibrate several layouts. *)

val conflict_factor :
  ?calibration:calibration ->
  machine:Lf_machine.Machine.config ->
  Space.candidate ->
  float
(** The multiplicative miss factor the analytic tier charges a
    candidate's layout: the calibration entry for its layout tag when
    present, the built-in heuristic otherwise. *)

val analytic :
  ?depth:int ->
  ?calibration:calibration ->
  machine:Lf_machine.Machine.config ->
  nprocs:int ->
  Lf_ir.Ir.program ->
  Space.candidate ->
  (float, string) result
(** Estimated cycles of a candidate; [Error] when it is infeasible.
    [calibration] replaces the layout conflict-factor heuristic with
    factors measured on a recorded profile. *)

val exact :
  ?depth:int ->
  ?steps:int ->
  ?cache:cache ->
  ?opts:Lf_batch.Run_opts.t ->
  machine:Lf_machine.Machine.config ->
  nprocs:int ->
  Lf_ir.Ir.program ->
  Space.candidate ->
  (exact, string) result
(** Simulated cycles of a candidate, memoised in [cache] when given.
    Cold evaluations go through {!Lf_batch.Batch.run_one_with} under
    [opts] (default: {!Lf_batch.Run_opts.default} with
    {!Lf_batch.Run_opts.Store_off}) as content-addressed
    {!Lf_machine.Sim.request}s.  The in-memory [cache] short-circuits
    repeats within a search; the options' store policy decides whether
    the on-disk result store short-circuits repeats across processes
    ([Store_in]), is bypassed but still written ([Store_cold]), or is
    not used at all ([Store_off]).  The engine is always
    [Run_compressed], whatever [opts] names. *)

(** {1 Measured tier}

    The third tier prices a candidate in real seconds: it builds the
    schedule, proves the native execution bit-identical to the
    reference interpreter ({!Lf_native.Native.verify}), then times it
    on the host's cores under {!Lf_native.Bench_timer}'s
    warmup/min-of-k/outlier policy.

    Deliberately {e unlike} {!exact}, there is no [?opts] parameter
    and never will be: wall-clock depends on the host, its load, its
    thermals — replaying a measurement from the content-addressed
    [_lf_cache/] would serve stale time as truth (DESIGN §7/§11).  The
    only memoisation is the in-memory [mcache], scoped to one process
    and keyed by measurement policy as well as configuration. *)

type measured = {
  m_min_s : float;  (** headline: minimum over all repetitions *)
  m_median_s : float;  (** median of the outlier-filtered repetitions *)
  m_reps : int;  (** timed repetitions taken *)
  m_kept : int;  (** repetitions surviving outlier rejection *)
}

type mcache
(** In-memory memo table for measured-tier evaluations.  Never backed
    by disk — see above. *)

val create_mcache : unit -> mcache

val mstats : mcache -> cache_stats

val measured :
  ?depth:int ->
  ?steps:int ->
  ?policy:Lf_native.Bench_timer.policy ->
  ?cache:mcache ->
  ?pool:Lf_parallel.Pool.t ->
  machine:Lf_machine.Machine.config ->
  nprocs:int ->
  Lf_ir.Ir.program ->
  Space.candidate ->
  (measured, string) result
(** Measured wall-clock of a candidate.  Every cold evaluation first
    runs {!Lf_native.Native.verify} — a candidate whose native output
    is not bit-identical to the interpreter is reported as [Error],
    never timed.  [pool] must hold exactly [nprocs] workers and keeps
    domain spawn/join out of the timed region; without one a fresh
    pool is created per evaluation.  The candidate's layout does not
    affect native execution (arrays are plain Bigarrays; the host
    cache is not programmable), so the memo key normalises it away —
    in a search, the whole layout axis costs one measurement. *)

(** Deterministic search drivers over the candidate space.

    Every driver exact-evaluates the reference configuration (the paper
    default, or unfused + partitioned when fusion is infeasible for the
    program) and returns the best of {reference} ∪ {explored}, with ties
    broken towards the earlier candidate in enumeration order — so the
    autotuner can never select a configuration worse than the paper
    default.  No driver uses randomness: rerunning a search on the same
    inputs returns the same configuration. *)

type driver =
  | Exhaustive  (** exact-evaluate every feasible candidate *)
  | Tuned of { margin : float; keep : int }
      (** analytic tier prunes: keep candidates within [margin] of the
          best analytic estimate (and at least the [keep] best), then
          exact-evaluate the survivors *)
  | Greedy of { budget : int }
      (** coordinate descent from the reference: repeatedly move to the
          best single-axis (variant or layout) improvement, at most
          [budget] exact evaluations *)
  | Beam of { width : int; budget : int }
      (** exact-evaluate the [width] analytically-best candidates
          (capped by [budget]) *)

val default_driver : driver
(** [Tuned { margin = 4.0; keep = 12 }]: generous enough that the
    analytic tier only discards clearly hopeless candidates (the
    property tests check it never discards the exact optimum). *)

val prune : margin:float -> keep:int -> ('a * float) list -> ('a * float) list
(** Analytic pruning, input order preserved: keep every item whose
    estimate is within [margin] times the best estimate, plus at least
    the [keep] lowest-estimate items. *)

type objective =
  | Cycles  (** minimise simulated cycles ({!Cost.exact}) *)
  | Wallclock
      (** minimise measured seconds on the host ({!Cost.measured}):
          every evaluated candidate is executed natively — verified
          bit-identical to the interpreter first — and timed under the
          warmup/min-of-k/outlier policy.  Analytic pruning still uses
          the machine model (it only {e ranks}, it never decides the
          winner), and measurements are memoised in memory only, never
          in the on-disk store. *)

type outcome = {
  best : Space.candidate;
  best_cost : Cost.exact;
  default : Space.candidate;  (** the reference configuration *)
  default_cost : Cost.exact;
  default_is_paper : bool;
      (** false when the paper default was infeasible and the unfused
          fallback serves as the reference *)
  objective : objective;
      (** under [Wallclock], [best_cost]/[default_cost] carry measured
          {e seconds} in [e_cycles] ([e_misses] = 0, [e_barrier] = 0.) *)
  space_size : int;
  considered : int;  (** candidates handed to the exact tier *)
  exact_evals : int;  (** exact-tier lookups issued (memo hits included) *)
}

val run :
  ?depth:int ->
  ?steps:int ->
  ?cache:Cost.cache ->
  ?opts:Lf_batch.Run_opts.t ->
  ?calibration:Cost.calibration ->
  ?driver:driver ->
  ?objective:objective ->
  ?policy:Lf_native.Bench_timer.policy ->
  ?sweep:bool ->
  machine:Lf_machine.Machine.config ->
  nprocs:int ->
  Lf_ir.Ir.program ->
  (outcome, string) result
(** Search the space for [p] on [machine] with [nprocs] processors.
    [calibration] feeds measured conflict factors to the analytic
    pruning tier (see {!Cost.calibration_of_sink}); [opts] are the
    options exact-tier evaluations run under, whose store policy can
    persist them on disk across searches and processes (see
    {!Cost.exact}; default: no store).  [Error] only when not even the
    unfused fallback can be simulated (e.g. more processors than
    iterations).

    [objective] (default [Cycles]) selects the deciding tier.  Under
    [Wallclock], [policy] overrides the measurement policy, [opts] is
    ignored (measured time is never persisted — DESIGN §7/§11), one
    domain pool of [nprocs] workers is created up front and reused for
    every candidate so spawn/join never lands in a timed region, and
    the reference-seeding guarantee still holds: the returned
    configuration's measured time is never worse than the reference's
    {e as measured in this search}.  Repeating a [Wallclock] search
    measures again — host time is not deterministic, unlike every
    other number in the system. *)
